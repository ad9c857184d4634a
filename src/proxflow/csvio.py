"""Versioned CSV writer shared by the CLI and the experiment suites.

Every file starts with a schema comment line (``# <schema>``) followed
by a column header; schema strings only change with a version bump.
Files are written to a temporary sibling and renamed into place, so
concurrent runs never observe a half-written file.
"""

from __future__ import annotations

import os
from pathlib import Path

# kind -> (schema string, column header); the one table of file formats
SCHEMAS = {
    "trace": ("proxflow-trace-v1", "k,objective,residual,time_s"),
    "series": ("proxflow-series-v1", "k,rel_error"),
    "aggregate": ("proxflow-aggregate-v1",
                  "variant,mean_iters,std_iters,mean_final_error,std_final_error"),
    "order": ("proxflow-order-v1", "h,error"),
    "rates": ("proxflow-rates-v1", "case,predicted,fitted,r_squared"),
    "stages": ("proxflow-stages-v1", "variant,seed,stage,alpha,iterations,final_error"),
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_rows(path, kind: str, rows) -> None:
    """Write ``rows`` under the schema line and header of ``SCHEMAS[kind]``."""
    schema, header = SCHEMAS[kind]
    lines = [f"# {schema}", header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
