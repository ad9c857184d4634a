"""Dense real inner-product space primitives.

All solvers operate on points of a finite-dimensional real inner-product
space: float64 numpy arrays, vectors for regression-type problems and
dense matrices for completion-type problems.  The helpers below define
the arithmetic contract the rest of the toolkit relies on, with explicit
shape checks instead of silent numpy broadcasting.  Points are treated
as immutable values; no function here or elsewhere in the package
mutates its array arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatchError

Element = np.ndarray


def as_element(x, name: str = "x") -> Element:
    """Coerce to a finite float64 array (the only storage the solvers accept)."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_same_shape(x: Element, y: Element) -> None:
    if np.shape(x) != np.shape(y):
        raise ShapeMismatchError(f"shape mismatch: {np.shape(x)} vs {np.shape(y)}")


def inner(x: Element, y: Element) -> float:
    """Euclidean inner product; Frobenius inner product for matrices."""
    check_same_shape(x, y)
    return float(np.vdot(x, y))


def norm(x: Element) -> float:
    """Euclidean norm for vectors, Frobenius norm for matrices.

    For a float64 ndarray this is what ``np.linalg.norm`` computes,
    sqrt(v.dot(v)) with ``v = x.ravel(order="K")``, bit for bit but
    without its argument handling; other inputs go through it.
    """
    if type(x) is np.ndarray and x.dtype == np.float64:
        v = x.ravel(order="K")
        return math.sqrt(v.dot(v))
    return float(np.linalg.norm(x))
