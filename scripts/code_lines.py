#!/usr/bin/env python3
"""Count the code lines of Python files, given as files or directories.

A line counts when it holds a token other than a comment, a line break,
an indent or dedent, or a docstring (a string that stands alone as a
statement). Blank lines, comment lines and docstrings therefore count
for nothing. Each directory stands for the `.py` files under it, sorted
by path. Prints one `<count> <file>` line per file, in the order the
paths are given and each file once, then `total <count>`.

    python scripts/code_lines.py src/vcsndp
    python scripts/code_lines.py src/vcsndp/maxflow.py tests
"""

import argparse
import tokenize
from pathlib import Path

# NEWLINE, which ends a statement, is kept to find docstrings, not counted
_IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold a counted token."""
    with tokenize.open(path) as f:
        tokens = [tok for tok in tokenize.generate_tokens(f.readline)
                  if tok.type not in _IGNORED]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string that both starts and ends its statement is a docstring
        starts = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        ends = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and starts and ends:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", type=Path, metavar="path",
                    help="a Python file, or a directory of them")
    args = ap.parse_args()
    files = [file for path in args.paths
             for file in (sorted(path.rglob("*.py")) if path.is_dir()
                          else [path])]
    total = 0
    for path in dict.fromkeys(files):
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
