"""The line collector of ``tools/traffic.py``, on a toy module."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TOY = '''\
import functools


def clip(x, hi):
    """Doc."""
    if x > hi:
        return hi
    return x


@functools.lru_cache
def twice(x):
    return [2 * x for _ in range(1)][0]


class Box:
    size = 1

    def grow(self):
        raise ValueError(
            "fixed")
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_reports_the_body_lines_that_never_ran(tmp_path):
    traffic = _load("traffic", ROOT / "tools" / "traffic.py")
    (tmp_path / "toy.py").write_text(TOY, encoding="utf-8")
    toy = _load("toy", tmp_path / "toy.py")
    before = sys.gettrace()
    with traffic.LineCollector(tmp_path) as collector:
        assert toy.clip(1, 2) == 1 and toy.twice(3) == 6
    assert sys.gettrace() is before
    # body lines: clip 6-8, twice 13, grow 20-21; not the docstring, the
    # decorator, the def lines or the class body
    assert traffic.never_ran(tmp_path, collector.lines) == {"toy.py": (6, [7, 20, 21])}
    # nothing outside the root is recorded
    assert list(collector.lines) == [str((tmp_path / "toy.py").resolve())]
