"""Proximal and gradient oracles.

Oracles are duck-typed.  A prox-capable term exposes

    prox(v, lam)   the resolvent (I + lam*T)^{-1} at v, i.e. the minimizer
                   of  term(x) + ||x - v||^2 / (2*lam),

and a smooth term exposes ``value(x)``, ``grad(x)`` and (when cheap) a
``lipschitz()`` estimate for the gradient.  Several classes implement
both sides and can sit in any slot of a three-term split.  Oracles are
immutable after construction except for the per-``lam`` memo of the
inverted system behind the least-squares and quadratic proxes, one
``functools.cache`` per oracle.  Concurrent calls read it coherently,
but two threads that race on a ``lam``'s first call may both build its
inverse; nothing in the package calls one oracle from two threads.  A
memo holds only the matrix it inverts, never its oracle, so an oracle
and its inverses are freed by reference counting as soon as its last
reference goes, without waiting for the cyclic garbage collector.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from .errors import NumericalError, ParameterError, require
from .space import Element, as_element, check_same_shape


# ---------------------------------------------------------------------------
# closed-form proximal maps


def soft_threshold(v: Element, tau: float) -> Element:
    """Shrink each entry toward zero by ``tau``; ties |v_i| = tau map to 0."""
    return np.sign(v) * np.maximum(np.abs(v) - require(tau, "threshold", strict=False), 0.0)


def grad_check(w, x: Element) -> float:
    """Max relative deviation of ``w.grad`` from central finite differences.

    Central differences with step 1e-6 balance truncation and roundoff at
    float64 precision.  The deviation is measured per entry as
    |g_i - fd_i| / (1 + |g_i|).
    """
    step = 1e-6
    x = np.asarray(x, dtype=np.float64)
    g = w.grad(x)
    fd = np.empty_like(x)
    flat = fd.reshape(-1)
    base = x.copy().reshape(-1)
    for i in range(base.size):
        orig = base[i]
        base[i] = orig + step
        up = w.value(base.reshape(x.shape))
        base[i] = orig - step
        down = w.value(base.reshape(x.shape))
        base[i] = orig
        flat[i] = (up - down) / (2.0 * step)
    return float(np.max(np.abs(g - fd) / (1.0 + np.abs(g))))


def gram_spectral_norm(A: Element) -> float:
    """Largest eigenvalue of ``A^T A``, i.e. the squared spectral norm of A.

    Computed by a symmetric eigensolver on ``A A^T`` (m x m), which has the
    same nonzero eigenvalues as ``A^T A`` and is the matrix the
    least-squares prox factors.  Exact to rounding, and 0 for a zero
    matrix.
    """
    return float(np.linalg.eigvalsh(A @ A.T)[-1])


def _check_shape(x: Element, shape: tuple, name: str = "v") -> None:
    """Refuse a point whose shape is not ``shape``, which numpy would
    otherwise broadcast against the oracle's data without a word."""
    if np.shape(x) != shape:
        raise ParameterError(f"{name} has shape {np.shape(x)}, expected {shape}")


# ---------------------------------------------------------------------------
# regularized inverse


def _regularized_inverse(matrix, shift: np.ndarray, lam: float) -> tuple:
    """``((I + lam*M)^{-1}, lam*shift)`` for ``lam > 0``.

    The least-squares and quadratic proxes solve systems in I + lam*M
    whose right-hand sides have the constant part lam*shift: M = A A^T
    (m x m) with shift -b, and M = P with shift -q.  The inverse is
    L^{-T} L^{-1}, from the Cholesky factor L of I + lam*M, and is applied
    by one matrix-vector product.  Its error is of order kappa*eps times
    ||inverse||*||rhs||, a Cholesky solve's kappa*eps times ||solution||;
    the two agree unless the right-hand side lies mostly along the large
    eigenvalues of I + lam*M (kappa <= 1 + lam*||M||).

    ``matrix()`` returns a fresh array holding M (``A @ A.T``, or a copy
    of P); it is scaled and shifted in place.  Adding 1 on the diagonal
    gives the same bits as ``np.eye(n) + lam*M`` without the identity
    temporary.  Each oracle memoizes this builder per ``lam`` with
    ``functools.cache`` over a ``partial`` binding ``matrix`` and
    ``shift``, so ``lam`` is checked once, when first seen, and a refused
    one leaves nothing cached.

    ``matrix`` must close over A or P alone: a builder that reaches the
    owning oracle (its bound method, a lambda over ``self``) makes a
    reference cycle that keeps the data alive until the cyclic garbage
    collector runs.
    """
    require(lam, "prox parameter")
    # I + lam*M, then its factor L, then L^{-1}: each rebinding frees the
    # matrix before it
    a = matrix()
    a *= lam
    a.flat[:: a.shape[0] + 1] += 1.0
    try:
        a = np.linalg.cholesky(a)
        a = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization failed for system of shape "
            f"{a.shape} (lam={lam}): {exc}"
        ) from exc
    return a.T @ a, lam * shift


# ---------------------------------------------------------------------------
# oracle classes


class L1:
    """Weighted l1 norm ``weight * sum(|x_i|)`` (nonsmooth, prox only)."""

    def __init__(self, weight: float):
        self.weight = float(require(weight, "l1 weight", strict=False))

    def value(self, x: Element) -> float:
        return self.weight * float(np.sum(np.abs(x)))

    def prox(self, v: Element, lam: float) -> Element:
        return soft_threshold(v, require(lam, "prox parameter") * self.weight)


class Box:
    """Indicator of the box [lo, hi]^n; prox is the clamp for any lam > 0."""

    def __init__(self, lo: float, hi: float):
        if not lo <= hi:    # also refuses a NaN bound; infinite bounds are allowed
            raise ParameterError(f"box needs lo <= hi, got lo={lo}, hi={hi}")
        self.lo = float(lo)
        self.hi = float(hi)

    def value(self, x: Element) -> float:
        return 0.0 if bool(np.all(x >= self.lo) and np.all(x <= self.hi)) else np.inf

    def prox(self, v: Element, lam: float) -> Element:
        require(lam, "prox parameter")
        return np.clip(v, self.lo, self.hi)


class Nuclear:
    """Weighted nuclear norm of a matrix; prox is singular-value shrinkage (full SVD)."""

    def __init__(self, weight: float):
        self.weight = float(require(weight, "nuclear weight", strict=False))

    def value(self, x: Element) -> float:
        return self.weight * float(np.sum(np.linalg.svd(x, compute_uv=False)))

    def prox(self, v: Element, lam: float) -> Element:
        if np.ndim(v) != 2:
            raise ParameterError(f"v has shape {np.shape(v)}, expected a matrix (2-D)")
        tau = require(lam, "prox parameter") * self.weight
        try:
            u, s, vt = np.linalg.svd(v, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"SVD failed for matrix of shape {np.shape(v)} (tau={tau}): {exc}"
            ) from exc
        return (u * np.maximum(s - tau, 0.0)) @ vt


class LeastSquares:
    """0.5*||A x - b||^2: smooth (gradient A^T(Ax-b)) and prox-capable.

    The prox u solves u + lam*A^T (A u - b) = v.  Its residual w = A u - b
    solves (I + lam*A A^T) w = A v - b, and u = v - lam*A^T w (the matrix
    inversion lemma of Boyd et al. 2011, *Distributed Optimization and
    Statistical Learning via ADMM*, sec. 4.2.4).  The m x m inverse is
    cached per ``lam`` (the solvers call the prox every iteration at fixed
    ``lam``).  Solving for the residual, rather than applying the lemma to
    v + lam*A^T b, keeps u from being the small difference of two large
    vectors when lam*||A||^2 is large.

    The system is m x m for every shape, the smaller one for the wide
    designs (m < n) of the lasso study.  For m >= n,
    ``Quadratic(A.T @ A, -(A.T @ b))`` solves the n x n system: its prox
    is the same, its gradient agrees up to rounding, and its value is
    lower by ||b||^2 / 2.
    """

    def __init__(self, A, b):
        self.A = as_element(A, "A")
        self.b = as_element(b, "b")
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ParameterError(
                f"inconsistent dimensions: A {self.A.shape}, b {self.b.shape}"
            )
        self._factor = cache(partial(_regularized_inverse,
                                     partial(np.matmul, self.A, self.A.T), -self.b))

    def value(self, x: Element) -> float:
        r = self.A @ x - self.b
        return 0.5 * float(r @ r)

    def grad(self, x: Element) -> Element:
        _check_shape(x, self.A.shape[1:], "x")
        return self.A.T @ (self.A @ x - self.b)

    def lipschitz(self) -> float:
        return gram_spectral_norm(self.A)

    def prox(self, v: Element, lam: float) -> Element:
        _check_shape(v, self.A.shape[1:])
        inverse, shift = self._factor(lam)
        # the inverse maps lam*(A v - b) to lam*w
        return v - self.A.T @ (inverse @ (lam * (self.A @ v) + shift))


class Quadratic:
    """0.5*x^T P x + q^T x for symmetric positive semidefinite P.

    Smooth and prox-capable; the prox solves (I + lam*P) u = v - lam*q
    with the inverse of I + lam*P, cached per ``lam``.  That inverse comes
    from a Cholesky factor, which reads only the lower triangle of P,
    while ``value`` and ``grad`` read all of it; so a P with
    max|P - P^T| > 1e-12 * max|P| (more than rounding) is refused.
    """

    def __init__(self, P, q=None):
        self.P = as_element(P, "P")
        if self.P.ndim != 2 or self.P.shape[0] != self.P.shape[1]:
            raise ParameterError(f"P must be square, got shape {self.P.shape}")
        skew = float(np.max(np.abs(self.P - self.P.T), initial=0.0))
        if skew > 1e-12 * np.max(np.abs(self.P), initial=0.0):
            raise ParameterError(f"P must be symmetric, got max |P - P^T| = {skew:g}")
        self.q = np.zeros(self.P.shape[0]) if q is None else as_element(q, "q")
        if self.q.shape != (self.P.shape[0],):
            raise ParameterError(f"q has shape {self.q.shape}, expected ({self.P.shape[0]},)")
        self._factor = cache(partial(_regularized_inverse, self.P.copy, -self.q))

    def value(self, x: Element) -> float:
        return 0.5 * float(x @ (self.P @ x)) + float(self.q @ x)

    def grad(self, x: Element) -> Element:
        return self.P @ x + self.q

    def lipschitz(self) -> float:
        return float(np.max(np.linalg.eigvalsh(self.P)))

    def prox(self, v: Element, lam: float) -> Element:
        _check_shape(v, self.q.shape)
        inverse, shift = self._factor(lam)
        return inverse @ (v + shift)


class HuberL1:
    """Smoothed l1 penalty: weight * sum(huber_delta(x_i)).

    huber_delta(u) = u^2/(2*delta) for |u| <= delta, |u| - delta/2 beyond.
    Differentiable everywhere with a closed-form prox, so it can stand in
    for the l1 term when a fully smooth problem is needed.
    """

    def __init__(self, weight: float, delta: float = 1e-3):
        self.weight = float(require(weight, "huber weight", strict=False))
        self.delta = float(require(delta, "huber delta"))

    def value(self, x: Element) -> float:
        a = np.abs(x)
        quad = a * a / (2.0 * self.delta)
        lin = a - self.delta / 2.0
        return self.weight * float(np.sum(np.where(a <= self.delta, quad, lin)))

    def grad(self, x: Element) -> Element:
        return self.weight * np.clip(x / self.delta, -1.0, 1.0)

    def lipschitz(self) -> float:
        return self.weight / self.delta

    def prox(self, v: Element, lam: float) -> Element:
        tau = require(lam, "prox parameter") * self.weight
        inner = v * (self.delta / (self.delta + tau))
        outer = v - tau * np.sign(v)
        return np.where(np.abs(v) <= self.delta + tau, inner, outer)


class MaskedQuadratic:
    """0.5*||P(x) - t||^2 for an entrywise observation mask.

    ``t`` is the observed data (zero off the mask), so the gradient is
    mask*x - t, and the gradient Lipschitz constant is 1.
    """

    def __init__(self, mask, target):
        self.mask = np.asarray(mask, dtype=bool)
        self.target = as_element(target, "target")
        check_same_shape(self.mask, self.target)
        if np.any(self.target[~self.mask] != 0.0):
            raise ParameterError("target must be zero outside the mask")

    def value(self, x: Element) -> float:
        _check_shape(x, self.target.shape, "x")
        r = np.where(self.mask, x, 0.0) - self.target
        return 0.5 * float(np.vdot(r, r))

    def grad(self, x: Element) -> Element:
        _check_shape(x, self.mask.shape, "x")
        return np.where(self.mask, x, 0.0) - self.target

    def lipschitz(self) -> float:
        return 1.0


class FunctionOracle:
    """Wrap explicit value/grad callables (smooth term without a prox)."""

    def __init__(self, value, grad):
        self._value = value
        self._grad = grad

    def value(self, x: Element) -> float:
        return float(self._value(x))

    def grad(self, x: Element) -> Element:
        return np.asarray(self._grad(x), dtype=np.float64)
