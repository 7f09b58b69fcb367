#!/usr/bin/env python3
"""Fails when a backticked repo path in README.md or docs/*.md names no file.

    python3 docs/check_paths.py

Run from the repository root. Inline code spans are split into words; a word
under src/, tests/, bench/, examples/, benchmark/, baselines/, docs/ or perf/
must match a file or directory. `*` and `{a,b}` expand as in a shell, and
each brace alternative must match on its own. Fenced code blocks are skipped.
Prints every stale path with its file and line, and exits 1 if there is one.
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIXES = ("src/", "tests/", "bench/", "examples/", "benchmark/",
            "baselines/", "docs/", "perf/")
FENCE = re.compile(r"^\s*```")
SPAN = re.compile(r"`([^`]+)`")
LINE_REF = re.compile(r":\d+(-\d+)?$")


def expand_braces(word):
    """`a.{h,cpp}` -> [`a.h`, `a.cpp`]; nested and repeated groups too."""
    match = re.search(r"\{([^{}]*)\}", word)
    if match is None:
        return [word]
    head, tail = word[:match.start()], word[match.end():]
    out = []
    for alternative in match.group(1).split(","):
        out.extend(expand_braces(head + alternative + tail))
    return out


def candidate_paths(span):
    for word in span.split():
        word = word.rstrip(",;.)")
        if word.startswith("./"):
            word = word[2:]
        word = LINE_REF.sub("", word)
        if word.startswith(PREFIXES):
            yield word


def stale_paths(doc):
    stale = []
    in_fence = False
    with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            if FENCE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for span in SPAN.findall(line):
                for word in candidate_paths(span):
                    for path in expand_braces(word):
                        if not glob.glob(os.path.join(ROOT, path)):
                            stale.append((doc, number, path))
    return stale


def main():
    docs = ["README.md"] + sorted(
        os.path.relpath(p, ROOT)
        for p in glob.glob(os.path.join(ROOT, "docs", "*.md")))
    stale = [entry for doc in docs for entry in stale_paths(doc)]
    for doc, number, path in stale:
        print(f"{doc}:{number}: `{path}` matches no file")
    print(f"check_paths: {len(docs)} docs, {len(stale)} stale path(s)")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
