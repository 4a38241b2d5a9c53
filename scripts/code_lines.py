#!/usr/bin/env python3
"""Count the code lines of a Python package, per module and in total.

    python scripts/code_lines.py [DIR]

A code line is a line that holds part of a token other than a comment, a
docstring or layout (newlines, indents): blank lines, comment lines and
docstrings do not count, and a statement or string over several lines
counts each of them. A docstring is a string that is a statement of its
own. DIR defaults to the package ``src/riemannkit`` of this repository;
every ``*.py`` file under it is counted.
"""

import argparse
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(path: str) -> int:
    """The number of code lines of the Python file at path."""
    with open(path, "rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIPPED]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        starts = k == 0 or tokens[k - 1].type in LAYOUT
        if tok.type == tokenize.STRING and starts and tokens[k + 1].type == tokenize.NEWLINE:
            continue  # a docstring, or another string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", default=os.path.join(ROOT, "src", "riemannkit"))
    args = ap.parse_args(argv)
    counts = {}
    for base, _, files in sorted(os.walk(args.dir)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                counts[os.path.relpath(path, args.dir)] = code_lines(path)
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
