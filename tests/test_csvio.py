"""Round trip of ``csvio.write_rows``: every value it writes parses back
with ``int``/``float`` to the same bits, under every file kind's schema
line and header."""

import math
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow import csvio

# column types of each file kind, in header order
COLUMNS = {
    "trace": (int, float, float, float),
    "series": (int, float),
    "aggregate": (str, float, float, float, float),
    "order": (float, float),
    "rates": (str, float, float, float),
    "stages": (str, int, int, float, int, float),
}

# values a float column must carry exactly: NaN, infinities, both zeros,
# the smallest and largest subnormals, the extremes, and floats that need
# all 17 significant digits
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.1, 0.1 + 0.2, 1 / 3, -2 / 3, 1e-6 * (1 + 2**-52), 12345.678901234567]

VALUES = {
    int: st.integers(-2**63, 2**63),
    float: st.floats() | st.sampled_from(EDGE_FLOATS),
    str: st.text("abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=20),
}


def _bits(value):
    if isinstance(value, float):
        # the text "nan" keeps no sign or payload: any NaN reads back as NaN
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def test_every_kind_has_column_types():
    assert set(COLUMNS) == set(csvio.SCHEMAS)
    for kind, (_, header) in csvio.SCHEMAS.items():
        assert len(header.split(",")) == len(COLUMNS[kind])


@pytest.mark.parametrize("kind", sorted(COLUMNS))
@settings(max_examples=60)
@given(data=st.data())
def test_rows_round_trip_bit_for_bit(kind, data):
    types = COLUMNS[kind]
    rows = data.draw(st.lists(st.tuples(*(VALUES[t] for t in types)), max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        csvio.write_rows(path, kind, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
    schema, header = csvio.SCHEMAS[kind]
    assert lines[:2] == [f"# {schema}", header]
    fields = [line.split(",") for line in lines[2:]]
    assert all(len(f) == len(types) for f in fields)
    parsed = [tuple(t(v) for t, v in zip(types, f)) for f in fields]
    assert [tuple(map(_bits, row)) for row in parsed] == \
        [tuple(map(_bits, row)) for row in rows]
    assert all(type(p) is type(r) for pr, rr in zip(parsed, rows) for p, r in zip(pr, rr))
