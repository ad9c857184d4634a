import struct

import numpy as np
import pytest

from proxflow import space
from proxflow.errors import ParameterError, ShapeMismatchError


def test_inner_orthogonal_and_direct():
    assert space.inner(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert space.inner(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 5.0


def test_inner_matches_norm_squared(rng):
    for _ in range(20):
        x = rng.standard_normal(rng.integers(1, 8))
        assert space.inner(x, x) == pytest.approx(space.norm(x) ** 2, rel=1e-12)


def test_norm_has_the_bits_of_np_linalg_norm(rng):
    m = rng.standard_normal((7, 5))
    cases = [rng.standard_normal(250), m, np.asfortranarray(m), m[::2, 1::2], m.T[::-1],
             np.zeros(6), np.zeros((3, 4)), np.array([1.0, np.inf, -2.0]),
             np.array([np.nan, 1.0]), np.array([-np.inf, np.nan]), np.array([1e200, 1e200]),
             [3.0, 4.0], np.arange(5), m.astype(np.float32)]
    for x in cases:
        with np.errstate(over="ignore"):    # 1e200**2
            got, want = space.norm(x), float(np.linalg.norm(x))
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want), x


def test_inner_shape_mismatch():
    # a wrong shape is a bad parameter, named as such
    assert issubclass(ShapeMismatchError, ParameterError)
    with pytest.raises(ShapeMismatchError, match=r"^y has shape \(4,\), expected \(3,\)$"):
        space.inner(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        space.inner(np.zeros((2, 3)), np.zeros((3, 2)))


def test_norm_examples():
    assert space.norm(np.zeros(3)) == 0.0
    assert space.norm(np.array([3.0, 4.0])) == 5.0
    assert space.norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_cauchy_schwarz(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        x, y = rng.standard_normal((2, n))
        assert abs(space.inner(x, y)) <= space.norm(x) * space.norm(y) + 1e-12


def test_norm_scaling(rng):
    for _ in range(30):
        x = rng.standard_normal(5)
        a = float(rng.standard_normal())
        got = space.norm(a * x)
        assert got == pytest.approx(abs(a) * space.norm(x), rel=1e-12)


def test_as_element_rejects_nonfinite():
    with pytest.raises(ParameterError, match="^x0 contains non-finite entries$"):
        space.as_element(np.array([1.0, np.nan]), "x0")
    with pytest.raises(ParameterError):
        space.as_element(np.array([np.inf]))


def test_operations_preserve_finiteness(rng):
    # finite inputs yield finite outputs across random draws
    for _ in range(25):
        x, y = rng.standard_normal((2, 6)) * 1e6
        assert np.isfinite(space.inner(x, y))
        assert np.isfinite(space.norm(x))
