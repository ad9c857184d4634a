import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # hypothesis builds its failure report with imports that warn; under the
    # project's warnings-as-errors setting that must not abort the session
    path = tmp_path / "test_two.py"
    path.write_text(_TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
