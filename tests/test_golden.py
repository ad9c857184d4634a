"""The digest of ``tools/golden.py``: blind to a trace's clock column only."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACE = ("# proxflow-trace-v1\n"
         "k,objective,residual,time_s\n"
         "0,1.5,nan,0\n"
         "1,0.25,0.5,0.0012345\n"
         "2,0.125,-0,0.0031\n")
FILES = {
    "solve/solve-quad.csv": TRACE,
    "solve/_stdout": "status=converged iterations=2\n",
    "solve/_exit": "0\n",
    "lasso/lasso-dy-seed1.csv": "# proxflow-series-v1\nk,rel_error\n0,1\n1,0.5\n",
}


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(text.encode() if isinstance(text, str) else text)


def _time_s_bytes(text):
    """Byte offsets of the time_s values (each data row's last field)."""
    offsets, start = set(), 0
    for n, line in enumerate(text.split("\n")):
        if n >= 2 and line:
            offsets.update(range(start + line.rindex(",") + 1, start + len(line)))
        start += len(line) + 1
    return offsets


def test_digest_ignores_time_s_and_sees_every_other_byte(tmp_path):
    golden = _golden()
    _write(tmp_path, FILES)
    base = golden.digest(tmp_path)
    assert sorted(base) == sorted(FILES)

    _write(tmp_path, {"solve/solve-quad.csv": TRACE.replace("0.0012345", "12.75")
                      .replace("0.0031", "1e-05")})
    assert golden.digest(tmp_path) == base

    for rel, text in FILES.items():
        data = text.encode()
        clock = _time_s_bytes(text) if rel.endswith(".csv") and "time_s" in text else set()
        for i in sorted(set(range(len(data))) - clock):
            _write(tmp_path, {rel: data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]})
            assert golden.digest(tmp_path)[rel] != base[rel], (rel, i)
        _write(tmp_path, {rel: data})
    assert golden.digest(tmp_path) == base


def test_differing_names_every_changed_added_and_removed_path(tmp_path):
    golden = _golden()
    base, change = tmp_path / "base", tmp_path / "change"
    _write(base, FILES)
    _write(change, FILES)
    assert golden.differing(golden.digest(base), golden.digest(change)) == []

    # a clock-only change is no difference; a result byte, a new file and
    # a missing file each are
    _write(change, {"solve/solve-quad.csv": TRACE.replace("0.0031", "9.5"),
                    "solve/_exit": "3\n", "extra/_stdout": "new\n"})
    (change / "lasso" / "lasso-dy-seed1.csv").unlink()
    assert golden.differing(golden.digest(base), golden.digest(change)) == [
        "extra/_stdout", "lasso/lasso-dy-seed1.csv", "solve/_exit"]
