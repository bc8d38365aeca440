"""Line count of the ``nsdq`` package, per module and in total.

Usage: ``python3 tools/src_lines.py [package directory]`` (default
``src/nsdq`` next to this directory).  Each line is counted once, as

* docstring: part of a string literal that is a whole statement (a
  module, class or function docstring);
* code: part of any other token;
* comment: a line that holds only a comment;
* blank: anything else.

A line of code that ends in a comment counts as code.  Standard library
only, so it runs before the package's dependencies are installed.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# tokens that are neither code nor the end of a statement
_LAYOUT = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
           tokenize.COMMENT}


def count(path: Path) -> dict:
    """The number of lines of each kind in one source file."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    kind = {}
    significant = [t for t in tokens if t.type not in _LAYOUT]
    for i, tok in enumerate(significant):
        if tok.type == tokenize.NEWLINE:
            continue
        statement_start = i == 0 or significant[i - 1].type == tokenize.NEWLINE
        statement_end = i + 1 == len(significant) or significant[i + 1].type == tokenize.NEWLINE
        doc = tok.type == tokenize.STRING and statement_start and statement_end
        for line in range(tok.start[0], tok.end[0] + 1):
            if kind.get(line) != "code":
                kind[line] = "docstring" if doc else "code"
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
    lines = path.read_bytes().count(b"\n")
    totals = dict.fromkeys(KINDS, 0)
    for line in range(1, lines + 1):
        totals[kind.get(line, "blank")] += 1
    return totals


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "nsdq"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    rows = [(m.name, count(m)) for m in modules]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}" + "".join(f"  {k:>9}" for k in KINDS))
    for name, counts in rows:
        print(f"{name:<{width}}  {sum(counts.values()):>6}" + "".join(f"  {counts[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
