"""The two studies' instance recipes, pinned against a committed table.

``instance_recipes.json`` holds, for the default desk sizes and seeds of
each study, the SHA-256 of the arrays the generators build without BLAS
(the lasso design ``A`` and planted signal ``x_true``, the completion
``mask``) and the values of those that go through it (``b``, ``alpha``,
``M``, ``lo``, ``hi``), compared to rtol 1e-12 so another BLAS's last bits
still pass.  Rewrite the table with

    PYTHONPATH=src python tests/test_instance_recipes.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from proxflow.experiments import gen_lasso, gen_matcomp

TABLE = Path(__file__).with_name("instance_recipes.json")
LASSO_SEEDS = (1, 3, 4)
MATCOMP_SEEDS = (0, 2, 3)


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def lasso_row(seed: int) -> dict:
    inst = gen_lasso(50, 250, seed=seed)
    return {"A_sha256": _sha256(inst.A), "x_true_sha256": _sha256(inst.x_true),
            "b": inst.b.tolist(), "alpha": inst.alpha}


def matcomp_row(seed: int) -> dict:
    inst = gen_matcomp(40, 40, 3, 0.5, seed=seed)
    return {"mask_sha256": _sha256(inst.mask), "M": inst.M.tolist(),
            "lo": inst.lo, "hi": inst.hi}


def _check(row: dict, expected: dict) -> None:
    assert row.keys() == expected.keys()
    for key, value in expected.items():
        if key.endswith("_sha256"):
            assert row[key] == value, key
        else:
            np.testing.assert_allclose(row[key], value, rtol=1e-12, atol=0, err_msg=key)


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", LASSO_SEEDS)
def test_gen_lasso_matches_its_committed_recipe(table, seed):
    _check(lasso_row(seed), table["lasso"][str(seed)])


@pytest.mark.parametrize("seed", MATCOMP_SEEDS)
def test_gen_matcomp_matches_its_committed_recipe(table, seed):
    _check(matcomp_row(seed), table["matcomp"][str(seed)])


if __name__ == "__main__":
    TABLE.write_text(json.dumps({
        "lasso": {str(seed): lasso_row(seed) for seed in LASSO_SEEDS},
        "matcomp": {str(seed): matcomp_row(seed) for seed in MATCOMP_SEEDS},
    }, indent=1) + "\n", encoding="utf-8")
