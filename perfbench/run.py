#!/usr/bin/env python3
"""Build and run the LocBLE performance benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout. The first run configures and
builds perfbench/ (which compiles the library from ../src) into .bench_build/
at the checkout root; later runs only bring that build up to date. Build
output goes to stderr. The benchmark's own output goes to stdout, and its
last line is the JSON result. A traced run (--trace 1) also writes the Chrome
trace to .bench_build/trace_<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "locble_perf")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then build the benchmark; raise on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "locble_perf",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet_replay", "standby_long_walk", "offline_fix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 1

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-out",
                 os.path.join(BUILD, f"trace_{args.workload}.json")]
    proc = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True)
    code, out = proc.returncode, proc.stdout
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        valid = False
    if code != 0 or not valid:
        # Keep the human-readable part for diagnosis; print no result line.
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
        print(f"error: benchmark exited {code} without a valid result",
              file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
