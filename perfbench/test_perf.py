#!/usr/bin/env python3
"""Tests of the LocBLE performance benchmark itself.

    python3 perfbench/test_perf.py

Builds the benchmark like run.py does, then drives tiny-scale runs of every
workload (a few seconds each) and checks:
  - every metric BENCHMARK.json names is printed, with its unit, on every
    workload, in both the plain and the traced run;
  - the run checks out (correct, nothing failed);
  - the deterministic metrics and the snapshot-stream digest are identical
    at 1 and 4 worker threads on fleet_replay, and across repeated runs of
    the two single-threaded workloads;
  - bad arguments, --threads on a single-threaded workload among them, exit
    non-zero without a result.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build-and-run front end)

WORKLOADS = ["fleet_replay", "standby_long_walk", "offline_fix"]
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Metrics that are a pure function of the seed: they must not move with the
# thread count or between runs. Timings and trace shares are left out.
DETERMINISTIC_E2E = ["fix_error_m_p50", "fix_error_m_p90", "fix_rate"]
DETERMINISTIC_LAYER = [
    "no_fix_rate", "wire.decode_failed", "serve.ingest_dropped",
    "serve.ingest_rejected", "serve.ingest_late", "serve.solves",
    "serve.batches_flushed", "serve.staleness_s_p99",
    "serve.snapshot_rows_per_epoch", "serve.checkpoint_bytes_per_session",
    "solver.solve_calls", "solver.exponent_candidates",
    "solver.multistart_runs", "solver.multistart_ratio",
    "solver.warm_fallbacks", "solver.workspace_grows",
    "solver.samples_folded", "solver.convergence_failures",
    "envaware.windows", "anf.samples",
]


def tiny(workload, trace, threads=None, seed=5):
    """Run one tiny-scale pass; return (result dict, stdout lines)."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
            "--trace", str(trace), "--scale", "tiny"]
    if threads is not None:
        argv += ["--threads", str(threads)]
    proc = subprocess.run([run.EXE] + argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def digest(lines):
    return [l for l in lines if l.startswith("digest ")]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_metrics(self, result, wanted):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result, _ = tiny(workload, 0)
                self.check_metrics(result, SPEC["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                result, _ = tiny(workload, 1)
                self.check_metrics(result, SPEC["per_layer"])

    def assert_same_outcome(self, runs, names):
        for name in names:
            values = {json.dumps(r["metrics"][name]["value"]) for r, _ in runs}
            self.assertEqual(len(values), 1, name)
        self.assertEqual(len({tuple(digest(lines)) for _, lines in runs}), 1)

    def test_fleet_outcome_ignores_thread_count(self):
        for trace, names in ((0, DETERMINISTIC_E2E), (1, DETERMINISTIC_LAYER)):
            with self.subTest(trace=trace):
                self.assert_same_outcome(
                    [tiny("fleet_replay", trace, threads=t) for t in (1, 4, 4)], names)

    def test_single_thread_outcome_repeats(self):
        # These workloads have no thread count: they run on one thread.
        for workload in ("standby_long_walk", "offline_fix"):
            for trace, names in ((0, DETERMINISTIC_E2E), (1, DETERMINISTIC_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    self.assert_same_outcome(
                        [tiny(workload, trace) for _ in range(2)], names)

    def test_bad_arguments_print_no_result(self):
        for argv in (["--workload", "no_such_workload"],
                     ["--workload", "offline_fix", "--threads", "2"],
                     ["--workload", "standby_long_walk", "--threads", "2"]):
            with self.subTest(argv=argv):
                proc = subprocess.run([run.EXE] + argv + ["--seed", "1", "--seconds", "1",
                                                         "--trace", "0"],
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      text=True)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
