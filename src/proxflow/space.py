"""Dense real inner-product space primitives.

All solvers operate on points of a finite-dimensional real inner-product
space: float64 numpy arrays, vectors for regression-type problems and
dense matrices for completion-type problems.  The helpers below define
the arithmetic contract the rest of the toolkit relies on.  The two
checks of a point live here, and the oracles, the solvers and the ODE
lab call them: :func:`as_element` refuses non-finite entries and
:func:`check_shape` a wrong shape, which numpy would otherwise broadcast
without a word.  Points are treated as immutable values; no function
here or elsewhere in the package mutates its array arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, ShapeMismatchError

Element = np.ndarray


def as_element(x, name: str = "x") -> Element:
    """Coerce to a finite float64 array (the only storage the solvers
    accept); ParameterError for a non-finite entry."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


def check_shape(x: Element, shape: tuple, name: str) -> Element:
    """``x`` itself when its shape is ``shape``; ShapeMismatchError,
    naming ``x`` as ``name``, otherwise."""
    if np.shape(x) != shape:
        raise ShapeMismatchError(f"{name} has shape {np.shape(x)}, expected {shape}")
    return x


def inner(x: Element, y: Element) -> float:
    """Euclidean inner product; Frobenius inner product for matrices."""
    return float(np.vdot(x, check_shape(y, np.shape(x), "y")))


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
