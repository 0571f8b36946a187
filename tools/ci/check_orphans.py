#!/usr/bin/env python3
"""Check that every library module under src/ has a user.

    python3 tools/ci/check_orphans.py [REPO_ROOT] [--build DIR]

REPO_ROOT defaults to the repository this script lives in.

Header pass (always): a header src/locble/<module>/<name>.hpp is an orphan
when no C++ file under src/, bench/, examples/, perfbench/ or tools/
includes it as "locble/<module>/<name>.hpp", other than its own <name>.cpp
beside it. Tests do not count as users: a module that only its unit tests
reach is code no program runs.

Link pass (with --build DIR, a configured and built CMake tree): runs nm
over every object of the src/locble/** static libraries in DIR and over
every executable DIR builds under bench/, examples/ and tools/. An object
is unlinked when no program defines any of its strong external symbols
(nm types T, D, B, R). A static-archive member is linked only when it
resolves a reference, so an unlinked object is code no program runs, even
when a header the header pass accepts declares it. The objects are read
from the archives, which hold exactly what the current build compiled; a
reused build tree keeps stale .o files of deleted sources beside them.
perfbench/ builds in its own tree (python3 perfbench/run.py), so its
program is not scanned; tests are not programs here either.

Exits 0 when both passes find nothing, 1 listing what they found, 2 on a
usage error (including a build tree without the archives or programs, or
no nm on PATH).
"""

import argparse
import os
import re
import subprocess
import sys

USER_DIRS = ("src", "bench", "examples", "perfbench", "tools")
CXX_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")
INCLUDE = re.compile(r'^\s*#\s*include\s+"(locble/[^"]+\.hpp)"', re.MULTILINE)

PROGRAM_DIRS = ("bench", "examples", "tools")
STRONG = frozenset("TDBR")
MEMBER = re.compile(r"^.*\[(.+)\]:$")


def cxx_files(root):
    for top in USER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                if name.endswith(CXX_SUFFIXES):
                    yield os.path.join(dirpath, name)


def header_pass(src, root):
    """The src/locble headers included by nothing outside their own .cpp."""
    # Include path -> the files that include it.
    users = {}
    for path in cxx_files(root):
        with open(path, encoding="utf-8") as f:
            for inc in INCLUDE.findall(f.read()):
                users.setdefault(inc, set()).add(os.path.realpath(path))

    orphans = []
    for dirpath, _, names in os.walk(os.path.join(src, "locble")):
        for name in sorted(names):
            if not name.endswith(".hpp"):
                continue
            header = os.path.join(dirpath, name)
            inc = os.path.relpath(header, src).replace(os.sep, "/")
            own_cpp = os.path.realpath(header[: -len(".hpp")] + ".cpp")
            if not users.get(inc, set()) - {own_cpp}:
                orphans.append(inc)
    return sorted(orphans)


def strong_definitions(path):
    """The strong external symbols `path` defines, keyed by archive member
    (None for a program). Every member gets a key, also one that defines
    nothing."""
    out = subprocess.run(["nm", "-P", "-g", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    defs = {}
    member = None
    for line in out.splitlines():
        head = MEMBER.match(line)
        if head:
            member = head.group(1)
            defs.setdefault(member, set())
            continue
        fields = line.split()
        if len(fields) >= 2 and fields[1] in STRONG:
            defs.setdefault(member, set()).add(fields[0])
    return defs


def is_program(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def link_pass(build):
    """The src/locble objects no program links, plus the counts scanned."""
    archives = []
    for dirpath, _, names in os.walk(os.path.join(build, "src", "locble")):
        archives += [os.path.join(dirpath, n) for n in names if n.endswith(".a")]
    programs = []
    for top in PROGRAM_DIRS:
        for dirpath, dirs, names in os.walk(os.path.join(build, top)):
            dirs[:] = [d for d in dirs if d != "CMakeFiles"]
            programs += [p for p in (os.path.join(dirpath, n) for n in names)
                         if is_program(p)]
    if not archives or not programs:
        raise ValueError(f"{build} holds no src/locble archives or no programs "
                         "under bench/, examples/ or tools/: build it first "
                         "(static libraries, the default)")

    linked = set()
    for prog in programs:
        linked.update(strong_definitions(prog).get(None, ()))

    # Object (as its source-relative path) -> its strong definitions.
    objects = {}
    for archive in archives:
        where = os.path.relpath(os.path.dirname(archive), build)
        for member, syms in strong_definitions(archive).items():
            objects[os.path.join(where, member).replace(os.sep, "/")] = syms
    unlinked = sorted(obj for obj, syms in objects.items() if not syms & linked)
    return unlinked, len(objects), len(programs)


def main():
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("root", nargs="?", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    parser.add_argument("--build", metavar="DIR")
    args = parser.parse_args()  # exits 2 on a usage error

    src = os.path.join(args.root, "src")
    if not os.path.isdir(os.path.join(src, "locble")):
        print(f"error: {src}/locble is not a directory", file=sys.stderr)
        return 2

    failed = False
    orphans = header_pass(src, args.root)
    for inc in orphans:
        print(f"orphan: src/{inc} is included by nothing outside its own .cpp")
    if orphans:
        print(f"{len(orphans)} orphan header(s): delete the module or give it a "
              "caller", file=sys.stderr)
        failed = True
    else:
        print("no orphan headers under src/locble")

    if args.build is not None:
        try:
            unlinked, nobjects, nprograms = link_pass(args.build)
        except (ValueError, OSError, subprocess.CalledProcessError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for obj in unlinked:
            print(f"unlinked: {obj} defines nothing any program links")
        if unlinked:
            print(f"{len(unlinked)} unlinked object(s) of {nobjects}: delete "
                  "the code or give it a caller", file=sys.stderr)
            failed = True
        else:
            print(f"all {nobjects} src/locble objects are linked into some of "
                  f"{nprograms} programs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
