#!/usr/bin/env python3
"""Check that every library header under src/ has a user.

    python3 tools/ci/check_orphans.py [REPO_ROOT]

REPO_ROOT defaults to the repository this script lives in. A header
src/locble/<module>/<name>.hpp is an orphan when no C++ file under src/,
bench/, examples/, perfbench/ or tools/ includes it as
"locble/<module>/<name>.hpp", other than its own <name>.cpp beside it.
Tests do not count as users: a module that only its unit tests reach is
code no program runs.

Exits 0 when there is no orphan, 1 listing the orphans, 2 on a usage error.
"""

import os
import re
import sys

USER_DIRS = ("src", "bench", "examples", "perfbench", "tools")
CXX_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")
INCLUDE = re.compile(r'^\s*#\s*include\s+"(locble/[^"]+\.hpp)"', re.MULTILINE)


def cxx_files(root):
    for top in USER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                if name.endswith(CXX_SUFFIXES):
                    yield os.path.join(dirpath, name)


def main():
    if len(sys.argv) > 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = sys.argv[1] if len(sys.argv) == 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..")
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "locble")):
        print(f"error: {src}/locble is not a directory", file=sys.stderr)
        return 2

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

    for inc in sorted(orphans):
        print(f"orphan: src/{inc} is included by nothing outside its own .cpp")
    if orphans:
        print(f"{len(orphans)} orphan header(s): delete the module or give it a "
              "caller", file=sys.stderr)
        return 1
    print("no orphan headers under src/locble")
    return 0


if __name__ == "__main__":
    sys.exit(main())
