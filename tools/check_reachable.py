#!/usr/bin/env python3
"""Fails when the engine library defines a function no engine binary reaches.

``libbdbms.a`` should hold only what ``bdbms_server`` and ``bdbms_client``
reach, plus the embedding API on the allowlist (``tools/reachable.txt``).
This script builds both binaries in a separate directory with
``-O0 -fno-inline -ffunction-sections`` (so every call stays a visible
reference) and links them with ``-Wl,--gc-sections`` (so a function no
root reaches is dropped). Each allowlisted symbol is linked in as an
extra GC root through ``-Wl,--require-defined=<mangled>``, so whatever it
calls counts as reached too.

A strong global function of ``libbdbms.a`` (``nm`` type ``T``; inline and
template code is weak and not counted) that is defined in neither binary
and not on the allowlist is reported by name. An allowlist entry that
names no function of ``libbdbms.a`` is reported as stale.

Allowlist format: one entry a line, ``<qualified name>  <caller>``. The
name is the demangled name without its parameter list, and covers every
overload; the caller says who needs the function although no engine
binary calls it. ``#`` starts a comment.

Usage: ``python3 tools/check_reachable.py [--build-dir DIR]``. Exit
status: 0 = clean, 1 = unreached or stale names, 2 = build or usage
error.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = REPO_ROOT / "tools" / "reachable.txt"
BINARIES = ("bdbms_server", "bdbms_client")


def run(cmd, **kwargs):
    result = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    if result.returncode != 0:
        sys.stderr.write("command failed: %s\n%s%s" %
                         (" ".join(cmd), result.stdout, result.stderr))
        sys.exit(2)
    return result.stdout


def configure(build, link_flags):
    run(["cmake", "-S", str(REPO_ROOT), "-B", str(build),
         "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=",
         "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=" + " ".join(["-Wl,--gc-sections"] +
                                                link_flags),
         "-DBDBMS_BUILD_TESTS=OFF", "-DBDBMS_BUILD_BENCHMARKS=OFF",
         "-DBDBMS_BUILD_EXAMPLES=OFF", "-DBDBMS_BUILD_TOOLS=ON"])


def build_targets(build, targets):
    run(["cmake", "--build", str(build), "-j", str(os.cpu_count() or 2),
         "--target"] + list(targets))


def defined_functions(path, types):
    """Mangled names of the functions `path` defines with an nm type in
    `types`."""
    names = set()
    for line in run(["nm", "--defined-only", str(path)]).splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in types:
            names.add(parts[2])
    return names


def demangle(mangled):
    out = run(["c++filt"], input="\n".join(mangled) + "\n")
    return dict(zip(mangled, out.splitlines()))


def qualified_name(signature):
    """`ns::Cls::Fn[abi:cxx11](int) const` -> `ns::Cls::Fn`; keeps
    `operator()`."""
    signature = re.sub(r"\[abi:[^\]]*\]", "", signature)
    depth = 0
    for i, ch in enumerate(signature):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            if signature[:i].endswith("operator"):
                continue
            return signature[:i]
    return signature


def read_allowlist(path):
    entries = {}
    bad = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) < 2:
            bad.append("%s:%d: no caller named for %s" %
                       (path, lineno, parts[0]))
            continue
        entries[parts[0]] = parts[1]
    return entries, bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=str(REPO_ROOT /
                                                   "build-reach"))
    args = parser.parse_args()
    build = pathlib.Path(args.build_dir).resolve()

    allowlist, bad = read_allowlist(ALLOWLIST)
    if bad:
        sys.stderr.write("\n".join(bad) + "\n")
        return 2

    configure(build, [])
    build_targets(build, ["bdbms"])
    library = build / "src" / "libbdbms.a"
    strong = defined_functions(library, {"T"})
    names = {m: qualified_name(d) for m, d in demangle(sorted(strong)).items()}

    roots = sorted(m for m, n in names.items() if n in allowlist)
    stale = sorted(set(allowlist) - set(names.values()))

    # Relinking with the roots as extra undefined references changes only
    # the link line, so the objects built above are reused.
    configure(build, ["-Wl,--require-defined=" + m for m in roots])
    build_targets(build, BINARIES)
    reached = set()
    for binary in BINARIES:
        reached |= defined_functions(build / "tools" / binary, {"T", "t"})

    unreached = sorted({names[m] for m in strong - reached
                        if names[m] not in allowlist})
    print("libbdbms.a: %d strong global functions, %d reached by %s, "
          "%d allowlisted names" % (len(strong), len(strong & reached),
                                    " + ".join(BINARIES), len(allowlist)))
    for name in unreached:
        print("unreached: " + name)
    for name in stale:
        print("stale allowlist entry: " + name)
    if unreached:
        print("Delete these functions, move them out of libbdbms, or add "
              "them with their caller to " + str(ALLOWLIST))
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
