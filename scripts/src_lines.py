"""Print the non-blank, non-comment lines of each ``src/mavik`` module and the total.

A line counts when it is not blank and holds some token other than a
comment, so docstrings count and a ``#`` inside a string does not hide its
line.  This is the source size that ROADMAP.md and CHANGES.md quote.

Usage: python scripts/src_lines.py [--against OLD.txt]

With ``--against``, a file of lines printed by an earlier run, it writes
to standard error, after the table, the old count, the new count and the
change of each module and of the total.  The table on standard output
stays the one a later run reads back.
"""

import argparse
import io
import sys
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


def parse(lines):
    """Map each printed line's module name (or ``total``) to its count."""
    counts = {}
    for line in lines:
        count, name = line.split()
        counts[name] = int(count)
    return counts


def compare(old_lines, new_lines):
    """One line per module of either run, then one for the total: the old
    count, the new count and the change.  A module only one run lists
    counts 0 in the other."""
    old, new = parse(old_lines), parse(new_lines)
    names = sorted((old.keys() | new.keys()) - {"total"}) + ["total"]
    return [f"{old.get(name, 0):6d} -> {new.get(name, 0):6d}  "
            f"{new.get(name, 0) - old.get(name, 0):+5d}  {name}" for name in names]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="lines printed by an earlier run")
    args = parser.parse_args(argv)
    lines = []
    for path in sorted(SRC.glob("*.py")):
        lines.append(f"{count_lines(path.read_text()):6d}  {path.name}")
    lines.append(f"{sum(int(line.split()[0]) for line in lines):6d}  total")
    print(*lines, sep="\n")
    if args.against is not None:
        print("change (old -> new):", *compare(args.against.read_text().splitlines(), lines),
              sep="\n", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
