"""Size of the package source, which ROADMAP aim 2 tracks.

    python tests/code_lines.py [SRC]

Prints each module of SRC (default: src/loopless next to this file) with its
lines and its code lines, then the totals.  A code line holds a token that is
not a comment and not part of a docstring (a statement that is a string
alone); blank lines hold none.  The count is by tokenize, so a string or a
bracket spanning lines counts every line it spans.  pytest does not collect
this file (it is not named test_*.py).
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that make no line a code line: layout, comments, the file's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if token.type in _LAYOUT:
            continue
        docstring = (token.type == tokenize.STRING
                     and (before is None or before.type in _STATEMENT_START)
                     and (after is None or after.type == tokenize.NEWLINE))
        if not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "loopless"
    rows = [(path.name, len(path.read_text(encoding="utf-8").splitlines()), code_lines(path))
            for path in sorted(src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<16} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
