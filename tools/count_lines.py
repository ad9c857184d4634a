"""Size of the package: ``wc -l`` and logical lines per module.

A logical line is a physical line that holds code: blank lines, comment
lines and docstrings are not counted; a statement over three lines counts
three.  Standard library only.

    python tools/count_lines.py [PACKAGE_DIR]     # default: src/proxflow
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(``wc -l``, logical lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP and tok.start[0] not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/proxflow")
    totals = [0, 0]
    print(f"{'module':<16} {'wc -l':>6} {'logical':>8}")
    for path in sorted(package.glob("*.py")):
        wc, logical = count(path.read_text(encoding="utf-8"))
        totals[0] += wc
        totals[1] += logical
        print(f"{path.name:<16} {wc:>6} {logical:>8}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>8}")


if __name__ == "__main__":
    main(sys.argv[1:])
