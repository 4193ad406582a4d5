#!/usr/bin/env python3
"""Validates the documentation link graph.

Checks, over ``README.md`` and every ``docs/*.md``:

1. every relative markdown link ``[text](target)`` resolves to a file
   that exists in the repository (anchors are stripped; absolute URLs
   and pure in-page ``#anchor`` links are skipped);
2. every file under ``docs/`` is reachable from ``README.md`` by
   following those links — no orphaned chapters;
3. every test citation ``tests/<file>.cc: <Name>`` in backticks (a line
   break may follow the colon) names a ``TEST``/``TEST_F``/``TEST_P``
   defined in that file — a renamed or deleted test cannot leave a
   stale citation behind.

Fenced code blocks are ignored, so EXPLAIN output and SQL snippets
cannot produce false links. Exit status: 0 = clean, 1 = at least one
broken link, unreachable doc or stale test citation, 2 = usage error. Run from anywhere;
paths resolve against the repository root (the parent of ``tools/``).
"""

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — non-greedy text, target up to the first ')' or space
# (markdown titles in links are not used in this repo).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^\s*(```|~~~)")
# `tests/<file>.cc: <Name>`; the whitespace may include a line break.
CITATION_RE = re.compile(r"`tests/([\w./-]+\.cc):\s+(\w+)`")
TEST_DEF_RE = re.compile(r"\bTEST(?:_F|_P)?\(\s*\w+\s*,\s*(\w+)\s*\)")


def unfenced_text(path: pathlib.Path) -> str:
    """Returns `path` with its fenced code blocks removed."""
    in_fence = False
    kept = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            kept.append(line)
    return "\n".join(kept)


def extract_links(path: pathlib.Path):
    """Yields link targets in `path`, skipping fenced code blocks."""
    for line in unfenced_text(path).splitlines():
        yield from LINK_RE.findall(line)


def check_test_citations(source: pathlib.Path, errors: list) -> None:
    """Appends an error for every citation naming no test in its file."""
    rel = source.relative_to(REPO_ROOT)
    for test_file, name in CITATION_RE.findall(unfenced_text(source)):
        path = REPO_ROOT / "tests" / test_file
        if not path.is_file():
            errors.append(f"{rel}: cites missing file tests/{test_file}")
            continue
        defined = TEST_DEF_RE.findall(path.read_text(encoding="utf-8"))
        if name not in defined:
            errors.append(f"{rel}: tests/{test_file} defines no test {name}")


def is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:"))


def main() -> int:
    readme = REPO_ROOT / "README.md"
    docs_dir = REPO_ROOT / "docs"
    if not readme.is_file() or not docs_dir.is_dir():
        print(f"error: {readme} or {docs_dir} missing", file=sys.stderr)
        return 2

    sources = [readme] + sorted(docs_dir.glob("*.md"))
    errors = []
    # Link graph over repository-relative file paths, for reachability.
    edges = {}
    for source in sources:
        targets = set()
        for raw in extract_links(source):
            if is_external(raw):
                continue
            target, _, _anchor = raw.partition("#")
            if not target:  # pure in-page anchor
                continue
            resolved = (source.parent / target).resolve()
            if not resolved.exists():
                rel = source.relative_to(REPO_ROOT)
                errors.append(f"{rel}: broken link -> {raw}")
                continue
            targets.add(resolved)
        edges[source.resolve()] = targets
        check_test_citations(source, errors)

    # BFS from README over markdown-to-markdown edges.
    reachable = set()
    frontier = [readme.resolve()]
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        for target in edges.get(node, ()):
            if target.suffix == ".md" and target not in reachable:
                frontier.append(target)

    for doc in sorted(docs_dir.glob("*.md")):
        if doc.resolve() not in reachable:
            rel = doc.relative_to(REPO_ROOT)
            errors.append(f"{rel}: not reachable from README.md")

    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    n_docs = len(list(docs_dir.glob("*.md")))
    print(f"check_docs: OK ({len(sources)} files, {n_docs} docs reachable)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
