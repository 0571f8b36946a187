#!/usr/bin/env python3
"""Check that every setting of the service config is set by some program.

    python3 tools/ci/check_knobs.py [REPO_ROOT]

REPO_ROOT defaults to the repository this script lives in.

The settings are the members that the config field lists bind: the
structured bindings (`auto& [a, b, c] = s;`) in the serve headers and the
config lists in src/locble/serve/checkpoint.cpp. Starting at
TrackingService::Config, a member whose declared type has a field list of
its own is a nested config and is walked in turn; every other member is a
leaf setting. A leaf is set when some C++ file under bench/, perfbench/ or
tools/ assigns it (`.name =`) or reaches into it (`.name.`), either through
the member that holds it (`.akf.q =`) or in a file that names the struct
declaring it (`AdaptiveKalman`): a bare `.q =` elsewhere sets some other
struct's `q`. Tests and examples do not count: a value only they change is a
knob no program turns, and belongs in a named constant. EXCEPTIONS keeps a
few unset settings on purpose, each with its reason; an exception that
matches no setting is stale and fails the check, so it cannot outlive the
setting it kept.

Prints the settable leaf count. Exits 0 when every leaf is set or excepted,
1 listing the others and any stale exception, 2 when the field lists cannot
be read.
"""

import argparse
import os
import re
import sys

ROOT_CONFIG = "TrackingService::Config"
SETTER_DIRS = ("bench", "perfbench", "tools")
CXX_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

# Setting path (or a prefix of paths) -> why it stays although no program
# sets it.
EXCEPTIONS = {
    "shard.session.max_session_samples":
        "the cap of the bounded-stream item (ROADMAP.md), which no workload "
        "reaches yet",
}

COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"", re.DOTALL)
STRUCT_HEAD = re.compile(r"(?<!enum )\b(?:struct|class)\s+(\w+)\s*(?:final\s*)?"
                         r"(?::\s*[^:{][^{]*)?$")
BINDING = re.compile(r"auto&\s*\[([^\]]*)\]\s*=\s*s\s*;")
CKPT_LIST = re.compile(r"template\s*<\s*Of<([\w:]+)>\s*S\s*,\s*class\s+V\s*>\s*"
                       r"void\s+fields\s*\(\s*S&\s*s\s*,\s*V&\s*v\s*\)\s*\{[^{}]*?"
                       + BINDING.pattern)


def strip_comments(text):
    """Comments and string literals blanked, offsets kept."""
    return COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def type_key(name):
    """`core::LocBle::Config` -> `LocBle::Config`: namespaces are lowercase."""
    parts = name.split("::")
    while len(parts) > 1 and parts[0][:1].islower():
        parts.pop(0)
    return "::".join(parts)


def struct_spans(text):
    """Each struct or class defined in `text` -> (qualified name, body start,
    body end), nested names joined with `::`."""
    spans, stack, last = [], [], 0
    for i, c in enumerate(text):
        if c == "{":
            head = STRUCT_HEAD.search(text[last:i].strip())
            stack.append((head.group(1) if head else None, i + 1))
        elif c == "}" and stack:
            name, start = stack.pop()
            if name is not None:
                outer = [n for n, _ in stack if n is not None]
                spans.append(("::".join(outer + [name]), start, i))
        if c in "{};":
            last = i + 1
    return spans


def read_lists(src):
    """The field lists (type key -> bound member names) and the struct bodies
    (type key -> text) under src/locble."""
    lists, bodies = {}, {}
    serve = os.path.join(src, "locble", "serve")
    for dirpath, _, names in os.walk(os.path.join(src, "locble")):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            if not name.endswith((".hpp", ".cpp")):
                continue
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            spans = struct_spans(text)
            for qual, start, end in spans:
                bodies.setdefault(type_key(qual), text[start:end])
            if dirpath != serve:
                continue
            if name == "checkpoint.cpp":
                for m in CKPT_LIST.finditer(text):
                    lists[type_key(m.group(1))] = split_names(m.group(2))
            elif name.endswith(".hpp"):
                for b in BINDING.finditer(text):
                    owners = [(q, s) for q, s, e in spans if s <= b.start() < e]
                    if owners:
                        owner = max(owners, key=lambda o: o[1])[0]
                        lists[type_key(owner)] = split_names(b.group(1))
    return lists, bodies


def split_names(text):
    return [n.strip() for n in text.split(",") if n.strip()]


def declared_type(body, member):
    m = re.search(r"([\w:]+)\s+" + re.escape(member) + r"\s*[{=;]", body)
    return type_key(m.group(1)) if m else None


def leaves(lists, bodies, key, prefix=""):
    """(path, declaring struct) of each leaf setting under the config `key`,
    in list order. Raises ValueError on a nested config with no list."""
    out = []
    for member in lists[key]:
        path = prefix + member
        nested = declared_type(bodies.get(key, ""), member)
        if nested in lists and nested != key:
            out += leaves(lists, bodies, nested, path + ".")
        elif nested is not None and nested.endswith("Config"):
            raise ValueError(f"no field list binds the members of {nested} ({path})")
        else:
            out.append((path, key))
    return out


def setter_files(root):
    texts = []
    for top in SETTER_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(CXX_SUFFIXES):
                    with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                        texts.append(strip_comments(f.read()))
    return texts


def is_set(path, owner, texts):
    *holders, name = path.split(".")
    sets = r"\.{}\s*(?:=(?!=)|\.)"
    through_holder = re.compile(r"\." + re.escape(holders[-1]) + sets.format(
        re.escape(name))) if holders else None
    bare = re.compile(sets.format(re.escape(name)))
    struct = re.compile(r"\b" + re.escape(owner.split("::")[0]) + r"\b")
    return any((through_holder and through_holder.search(t)) or
               (struct.search(t) and bare.search(t)) for t in texts)


def excepted(path):
    return next((p for p in EXCEPTIONS if path == p or path.startswith(p + ".")),
                None)


def main():
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("root", nargs="?", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    args = parser.parse_args()  # exits 2 on a usage error

    src = os.path.join(args.root, "src")
    lists, bodies = read_lists(src)
    if ROOT_CONFIG not in lists:
        print(f"error: no field list binds {ROOT_CONFIG}'s members under "
              f"{src}/locble/serve", file=sys.stderr)
        return 2

    try:
        settings = leaves(lists, bodies, ROOT_CONFIG)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    texts = setter_files(args.root)
    unset = [path for path, owner in settings
             if not excepted(path) and not is_set(path, owner, texts)]

    print(f"{len(settings)} settable leaf fields under {ROOT_CONFIG}")
    stale = []
    for prefix, why in EXCEPTIONS.items():
        kept = [p for p, _ in settings if excepted(p) == prefix]
        if kept:
            print(f"kept unset ({len(kept)}): {prefix}: {why}")
        else:
            stale.append(prefix)
            print(f"stale exception: {prefix} matches no setting")
    for path in unset:
        print(f"unset: {path} is set by no file under "
              f"{', '.join(d + '/' for d in SETTER_DIRS)}")
    if unset:
        print(f"{len(unset)} setting(s) no program sets: make each a named "
              "constant, or give it a caller", file=sys.stderr)
    if stale:
        print(f"{len(stale)} exception(s) match no setting: delete them",
              file=sys.stderr)
    return 1 if unset or stale else 0


if __name__ == "__main__":
    sys.exit(main())
