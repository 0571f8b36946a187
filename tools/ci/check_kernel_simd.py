#!/usr/bin/env python3
"""Check that the solver lane kernels compiled to packed vector code.

    python3 tools/ci/check_kernel_simd.py BUILD_DIR

BUILD_DIR is a configured and built tree (at least the locble_core target).
The script reads the flags solver_kernels.cpp was compiled with from
BUILD_DIR/compile_commands.json: the ISA flag the LOCBLE_KERNEL_SIMD probe
added (-mavx512f, -mavx2 or none) and the lane width W (LOCBLE_LANE_WIDTH).
It then
disassembles the object with `objdump -d` and requires each 2-D kernel
instantiated at W to contain packed arithmetic on the register that ISA
gives a W-wide block:

- residual2 and the multi-segment element kernels (gn_seg, residual_seg)
  must contain a packed divide: `vdivpd` on zmm (avx512f) or ymm (avx2),
  `divpd` on xmm (baseline SSE2);
- centered_m2 has no divide and must contain a packed multiply instead;
- the lockstep Gauss-Newton executor's sweeps (gn2_runs and seed2_runs
  with the samples in the lanes — gn2_lanes and seed_sum_lanes are their
  one-run case — seg_runs and seg_seed_runs with the runs in them) and its
  lane solve (lane_solve) must contain the packed divide in every
  instantiation whose block width is W, and have at least one.

A build whose kernels fell back to scalar code passes every identity test
while losing the speedup; this check fails it. Exits 0 on success, 1 on a
missing packed instruction, 2 on a usage or build-tree error.
"""

import json
import os
import re
import shlex
import subprocess
import sys

DIVIDING = ("residual2_lanes", "gn_seg_lanes", "residual_seg_lanes")
MULTIPLYING = ("centered_m2_lanes",)
LOCKSTEP = ("gn2_runs", "seed2_runs", "seg_runs", "seg_seed_runs", "lane_solve")
NATIVE_BITS = {"avx512f": 512, "avx2": 256, "baseline": 128}
REGISTER = {512: "zmm", 256: "ymm", 128: "xmm"}


def kernel_compile_command(build_dir):
    with open(os.path.join(build_dir, "compile_commands.json")) as f:
        for entry in json.load(f):
            if entry["file"].endswith("core/solver_kernels.cpp"):
                return entry
    raise LookupError("solver_kernels.cpp is not in compile_commands.json")


def main():
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    build_dir = sys.argv[1]
    try:
        entry = kernel_compile_command(build_dir)
    except (OSError, ValueError, LookupError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    args = shlex.split(entry["command"])
    defs = dict(a[2:].split("=", 1) for a in args if a.startswith("-D") and "=" in a)
    width = int(defs["LOCBLE_LANE_WIDTH"])
    isa = ("avx512f" if "-mavx512f" in args else
           "avx2" if "-mavx2" in args else "baseline")
    obj = args[args.index("-o") + 1]
    if not os.path.isabs(obj):
        obj = os.path.join(entry["directory"], obj)
    if width == 1:
        print(f"W=1 ({isa}): a one-lane block is scalar by design; nothing to check")
        return 0
    bits = min(64 * width, NATIVE_BITS[isa])
    reg = REGISTER[bits]
    prefix = "" if isa == "baseline" else "v"

    dump = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", obj],
                          check=True, capture_output=True, text=True).stdout
    # Function bodies by (name, template arguments); a compiler clone
    # (".constprop", ".isra") adds its lines to its function's.
    bodies = {}
    current = None
    for line in dump.splitlines():
        head = re.match(r"^[0-9a-f]+ <(.*)>:$", line)
        if head:
            current = None
            sym = re.search(r"kernels::(?:\(anonymous namespace\)::)?(\w+)<([\dul, ]+)>",
                            head.group(1))
            if sym:
                args = tuple(int(a.strip().rstrip("ul")) for a in sym.group(2).split(","))
                if args[0] == width:
                    current = (sym.group(1), args)
                    bodies.setdefault(current, [])
        elif current:
            bodies[current].append(line)

    failed = False

    def check(key, op):
        nonlocal failed
        pattern = re.compile(rf"\s{prefix}{op}\s.*%{reg}")
        hits = sum(1 for l in bodies.get(key, []) if pattern.search(l))
        status = "ok" if hits else "MISSING"
        print(f"{key[0]}<{', '.join(map(str, key[1]))}>: {hits} x {prefix}{op} on {reg} [{status}]")
        failed = failed or hits == 0

    for names, op in ((DIVIDING, "divpd"), (MULTIPLYING, "mulpd")):
        for name in names:
            check((name, (width,)), op)
    for name in LOCKSTEP:
        keys = sorted(k for k in bodies if k[0] == name)
        if not keys:
            print(f"{name}<{width}, ...>: no instantiation [MISSING]")
            failed = True
        for key in keys:
            check(key, "divpd")
    print(f"kernel ISA {isa}, W={width}: "
          + ("FAIL — scalar fallback in the lane kernels" if failed else "packed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
