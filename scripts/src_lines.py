"""Print the non-blank, non-comment lines of each ``src/mavik`` module and the total.

A line counts when it is not blank and holds some token other than a
comment, so docstrings count and a ``#`` inside a string does not hide its
line.  This is the source size that ROADMAP.md and CHANGES.md quote.

Usage: python scripts/src_lines.py
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mavik"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(text):
    """Non-blank lines of ``text`` that hold a token other than a comment."""
    lines = text.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for i in code if lines[i - 1].strip())


def main():
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = count_lines(path.read_text())
        total += lines
        print(f"{lines:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
