"""Size of the package: ``wc -l`` and logical lines per module, the
settable fields of its config classes, and the bytes of source that
importing the package loads.

A logical line is a physical line that holds code: blank lines, comment
lines and docstrings are not counted; a statement over three lines counts
three.  A config class is a ``@dataclass`` whose name ends in ``Config``;
each annotated field in its body is one value a caller can set.  The
import path is ``__init__.py`` and every module reached from it by
relative imports that run at import time (not inside a function body);
without cached bytecode, each of them is compiled on every import.
Standard library only.

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


def config_fields(source: str) -> dict[str, int]:
    """Settable fields of each ``@dataclass`` class named ``*Config``."""
    counts = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config") and any(
                _decorator_name(d) == "dataclass" for d in node.decorator_list):
            counts[node.name] = sum(isinstance(stmt, ast.AnnAssign)
                                    and isinstance(stmt.target, ast.Name)
                                    for stmt in node.body)
    return counts


def import_path(package: Path) -> list[Path]:
    """The package's modules that ``import package`` loads, sorted."""
    seen, todo = set(), [package / "__init__.py"]
    while todo:
        path = todo.pop()
        if path in seen or not path.is_file():
            continue
        seen.add(path)
        for node in _runs_on_import(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                todo += [package / f"{name}.py" for name in names]
    return sorted(seen)


def _runs_on_import(tree: ast.Module):
    """Every node of a module but those inside a function body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _decorator_name(node: ast.expr) -> str | None:
    """``dataclass`` for ``@dataclass``, ``@dataclass(...)`` and
    ``@dataclasses.dataclass(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/proxflow")
    totals = [0, 0]
    fields = {}
    print(f"{'module':<16} {'wc -l':>6} {'logical':>8}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        wc, logical = count(source)
        totals[0] += wc
        totals[1] += logical
        fields.update(config_fields(source))
        print(f"{path.name:<16} {wc:>6} {logical:>8}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>8}")
    print()
    print(f"{'config':<16} {'fields':>6}")
    for name, n in fields.items():
        print(f"{name:<16} {n:>6}")
    print(f"{'total':<16} {sum(fields.values()):>6}")
    print()
    print(f"{'import path':<16} {'bytes':>6}")
    sizes = {path.name: path.stat().st_size for path in import_path(package)}
    for name, size in sizes.items():
        print(f"{name:<16} {size:>6}")
    print(f"{'total':<16} {sum(sizes.values()):>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
