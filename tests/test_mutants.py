"""``tools/mutants.py``: one mutation applied to a tree and put back, and its table."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULE = "def answer():\n    return 42\n\n\ndef question():\n    return 'six by nine'\n"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_mutation_is_applied_and_put_back_byte_for_byte(tmp_path):
    mutants = _mutants()
    path = tmp_path / "src" / "fake" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(MODULE, encoding="utf-8")
    mutant = mutants.Mutant("off-by-one", "src/fake/mod.py", "return 42", "return 43")
    with mutants.applied(tmp_path, mutant):
        assert path.read_text(encoding="utf-8") == MODULE.replace("42", "43")
    assert path.read_text(encoding="utf-8") == MODULE
    # put back also when the block raises
    with pytest.raises(RuntimeError), mutants.applied(tmp_path, mutant):
        raise RuntimeError
    assert path.read_text(encoding="utf-8") == MODULE
    # a line that is not there once is refused, and the file is left as it is
    for old, count in (("return 7", 0), ("return", 2)):
        with pytest.raises(ValueError, match=f"occurs {count} times"):
            mutants.apply(tmp_path, mutants.Mutant("x", "src/fake/mod.py", old, "pass"))
        assert path.read_text(encoding="utf-8") == MODULE


def test_every_mutant_names_one_line_of_the_checkout():
    table = _mutants().MUTANTS
    assert len({m.name for m in table}) == len(table) >= 20
    assert {Path(m.path).stem for m in table} >= {"solvers", "damping", "prox", "odelab",
                                                  "experiments"}
    for m in table:
        old = (ROOT / m.path).read_text(encoding="utf-8")
        assert old.count(m.old) == 1 and "\n" not in m.old + m.new and m.old != m.new, m.name


def test_the_suite_run_tells_a_killed_mutant_from_a_survivor(tmp_path):
    mutants = _mutants()
    (tmp_path / "src" / "fake").mkdir(parents=True)
    (tmp_path / "src" / "fake" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from fake.mod import answer\n\n\ndef test_answer():\n    assert answer() == 42\n",
        encoding="utf-8")
    killing = mutants.Mutant("off-by-one", "src/fake/mod.py", "return 42", "return 43")
    unseen = mutants.Mutant("question", "src/fake/mod.py", "'six by nine'", "'six by seven'")
    with mutants.applied(tmp_path, killing):
        assert mutants.run_suite(tmp_path, 60) == (True, "tests/test_mod.py::test_answer")
    with mutants.applied(tmp_path, unseen):
        assert mutants.run_suite(tmp_path, 60) == (False, "")
