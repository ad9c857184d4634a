"""The README's library example, CSV schema, run-status and suite-flag tables, and the
line counter."""

import argparse
import importlib.util
import re
from pathlib import Path

from proxflow import cli, csvio
from proxflow.solvers import STATUSES

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


def test_readme_status_table_matches_solvers():
    rows = re.findall(r"^\| `([a-z-]+)` \| `(\d+)` \|$", README, re.M)
    assert [(name, int(code)) for name, code in rows] == list(STATUSES.items())


def test_readme_suite_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `(--[a-z-]+)` \| (yes|no) \| (yes|no) \|$", README, re.M)
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for column, command in enumerate(("lasso", "matcomp"), 1):
        documented = [row[0] for row in rows if row[column] == "yes"]
        flags = [option for action in subparsers[command]._actions
                 for option in action.option_strings if option not in ("-h", "--help")]
        assert documented == flags, command


def _count_lines():
    spec = importlib.util.spec_from_file_location("count_lines",
                                                  ROOT / "tools" / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert _count_lines().count(source) == (7, 3)


def test_count_lines_counts_settable_fields_of_config_dataclasses():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class SuiteConfig:\n"
        "    n: int = 4\n"
        "    seeds: tuple = (0,)\n"
        "    LIMIT = 9\n"               # not annotated: not a field
        "    def instance(self): return self.n\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class RunConfig:\n"
        "    tol: float\n"
        "\n"
        "class PlainConfig:\n"         # not a dataclass
        "    n: int = 4\n"
        "\n"
        "@dataclass\n"
        "class Record:\n"              # not named *Config
        "    n: int = 4\n"
    )
    assert _count_lines().config_fields(source) == {"SuiteConfig": 2, "RunConfig": 1}


def test_import_path_follows_relative_imports_that_run_on_import(tmp_path):
    files = {
        "__init__.py": "from .a import x\nfrom . import b\n",
        "a.py": "import os\nfrom .c import y\nx = 1\n",
        "b.py": "def lazy():\n    from .d import z\n",     # d loads only when called
        "c.py": "try:\n    from .e import w\nexcept ImportError:\n    pass\ny = 2\n",
        "d.py": "z = 3\n",
        "e.py": "w = 4\n",
        "unused.py": "v = 5\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    path = _count_lines().import_path(tmp_path)
    assert [p.name for p in path] == ["__init__.py", "a.py", "b.py", "c.py", "e.py"]
