"""Count the code tokens of Python files.

Usage: python3 tools/code_tokens.py PATH...

A path may be a file or a directory, whose ``*.py`` files are counted
recursively.  A code token is any token that ``tokenize`` yields except
comments, docstrings and the layout tokens ``NL``, ``NEWLINE``,
``INDENT``, ``DEDENT`` and ``ENDMARKER``.  A docstring is a string token
that stands alone as a statement.  Prints the total over every path.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
_SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENDMARKER)


def count(path: Path) -> int:
    """The code tokens of one file."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    total, at_start = 0, True
    for index, token in enumerate(tokens):
        if token.type in _LAYOUT:
            at_start = True
            continue
        if token.type in _SKIPPED:
            continue
        after = next(
            t.type for t in tokens[index + 1 :] if t.type not in (tokenize.COMMENT, tokenize.NL)
        )
        docstring = (
            token.type == tokenize.STRING
            and at_start
            and after in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        total += not docstring
        at_start = False
    return total


def files(paths: list[str]) -> list[Path]:
    """Every file a path names: itself, or a directory's ``*.py`` files
    in sorted order."""
    return [
        file
        for arg in paths
        for file in (sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir() else [Path(arg)])
    ]


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write("usage: code_tokens.py PATH...\n")
        return 2
    print(sum(count(file) for file in files(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
