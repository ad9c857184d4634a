"""The README's library example and CSV schema table, and the line counter."""

import importlib.util
import re
from pathlib import Path

from proxflow import csvio

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_solves_a_real_problem(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(block.group(1), namespace)
    trace = namespace["trace"]
    assert trace.status == "converged"
    assert trace.iterations > 1
    assert capsys.readouterr().out.startswith(f"converged {trace.iterations} ")


def test_readme_schema_table_matches_csvio():
    rows = re.findall(r"^\| `(proxflow-[a-z]+-v\d+)` \| `([^`]*)` \|$", README, re.M)
    assert sorted(rows) == sorted(csvio.SCHEMAS.values())


def _count_lines():
    spec = importlib.util.spec_from_file_location("count_lines",
                                                  ROOT / "tools" / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.count


def test_count_lines_skips_docstrings_comments_and_blanks():
    source = (
        '"""Module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "total = sum([\n"
        "    1,\n"
        "    2])\n"
    )
    # 7 physical lines; only the statement's three count
    assert _count_lines()(source) == (7, 3)
