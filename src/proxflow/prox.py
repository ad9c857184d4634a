"""Proximal and gradient oracles.

Oracles are duck-typed.  A prox-capable term exposes

    prox(v, lam)   the resolvent (I + lam*T)^{-1} at v, i.e. the minimizer
                   of  term(x) + ||x - v||^2 / (2*lam),

and a smooth term exposes ``value(x)``, ``grad(x)`` and (when cheap) a
``lipschitz()`` estimate for the gradient.  Several classes implement
both sides and can sit in any slot of a three-term split.  Oracles are
immutable after construction except for the per-``lam`` caches of the
inverted systems behind the least-squares and quadratic proxes, which
are lock-protected so any number of threads may evaluate the same
oracle concurrently.  A cache holds only the matrix it inverts, never
its oracle, so an oracle and its inverses are freed by reference
counting as soon as its last reference goes, without waiting for the
cyclic garbage collector.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np

from .errors import NumericalError, ParameterError
from .space import Element, as_element, check_same_shape


# ---------------------------------------------------------------------------
# closed-form proximal maps


def soft_threshold(v: Element, tau: float) -> Element:
    """Shrink each entry toward zero by ``tau``; ties |v_i| = tau map to 0."""
    if tau < 0:
        raise ParameterError(f"threshold must be >= 0, got {tau}")
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_box(x: Element, lo: float, hi: float) -> Element:
    """Clamp every entry to [lo, hi]."""
    if lo > hi:
        raise ParameterError(f"empty box: lo={lo} > hi={hi}")
    return np.clip(x, lo, hi)


def prox_nuclear(x: Element, tau: float) -> Element:
    """Soft-threshold the singular values of a matrix by ``tau`` (full SVD)."""
    if tau < 0:
        raise ParameterError(f"threshold must be >= 0, got {tau}")
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed for matrix of shape {np.shape(x)} (tau={tau}): {exc}"
        ) from exc
    return (u * np.maximum(s - tau, 0.0)) @ vt


def grad_check(w, x: Element, step: float = 1e-6) -> float:
    """Max relative deviation of ``w.grad`` from central finite differences.

    Central differences with the default step balance truncation and
    roundoff at float64 precision.  The deviation is measured per entry
    as |g_i - fd_i| / (1 + |g_i|).
    """
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


def _smaller_gram(A: np.ndarray) -> np.ndarray:
    """``A A^T`` when m < n, else ``A^T A`` (exactly symmetric)."""
    return A @ A.T if A.shape[0] < A.shape[1] else A.T @ A


def gram_spectral_norm(A: Element) -> float:
    """Largest eigenvalue of ``A^T A``, i.e. the squared spectral norm of A.

    Computed by a symmetric eigensolver on the smaller Gram matrix:
    ``A A^T`` (m x m) when m < n, which has the same nonzero eigenvalues
    as ``A^T A``, and ``A^T A`` otherwise (the same choice the
    least-squares prox makes).  Exact to rounding, and 0 for a zero
    matrix.
    """
    return float(np.linalg.eigvalsh(_smaller_gram(A))[-1])


# ---------------------------------------------------------------------------
# factorization cache


class _CholeskyCache:
    """Per-``lam`` entries ``((I + lam*M)^{-1}, lam*shift)``, built on first use.

    The least-squares and quadratic proxes solve systems in I + lam*M
    whose right-hand sides have the constant part lam*shift.  The inverse
    is L^{-T} L^{-1}, from the Cholesky factor L of I + lam*M, and is
    applied by one matrix-vector product.  Its error is of order kappa*eps
    times ||inverse||*||rhs||, a Cholesky solve's kappa*eps times
    ||solution||; the two agree unless the right-hand side lies mostly
    along the large eigenvalues of I + lam*M (kappa <= 1 + lam*||M||).

    ``matrix()`` returns a fresh array holding M; it is scaled and shifted
    in place.  Adding 1 on the diagonal gives the same bits as
    ``np.eye(n) + lam*M`` without the identity temporary.  Solvers call a
    prox every iteration at fixed ``lam``, so each entry is built once;
    the build is lock-protected so concurrent callers share it.

    ``matrix`` must close over M alone: a builder that reaches the owning
    oracle (its bound method, a lambda over ``self``) makes a reference
    cycle that keeps M alive until the cyclic garbage collector runs.
    """

    def __init__(self, matrix, shift: np.ndarray):
        self._matrix = matrix
        self._shift = shift
        self._entries: dict[float, tuple] = {}
        self._lock = threading.Lock()

    def __call__(self, lam: float) -> tuple:
        entry = self._entries.get(lam)
        if entry is None:
            with self._lock:
                entry = self._entries.get(lam)
                if entry is None:
                    system = self._matrix()
                    system *= lam
                    system.flat[:: system.shape[0] + 1] += 1.0
                    try:
                        chol_inv = np.linalg.inv(np.linalg.cholesky(system))
                    except np.linalg.LinAlgError as exc:
                        raise NumericalError(
                            f"Cholesky factorization failed for system of shape "
                            f"{system.shape} (lam={lam}): {exc}"
                        ) from exc
                    entry = (chol_inv.T @ chol_inv, lam * self._shift)
                    self._entries[lam] = entry
        return entry


# ---------------------------------------------------------------------------
# oracle classes


class L1:
    """Weighted l1 norm ``weight * sum(|x_i|)`` (nonsmooth, prox only)."""

    def __init__(self, weight: float):
        if weight < 0:
            raise ParameterError(f"l1 weight must be >= 0, got {weight}")
        self.weight = float(weight)

    def value(self, x: Element) -> float:
        return self.weight * float(np.sum(np.abs(x)))

    def prox(self, v: Element, lam: float) -> Element:
        if lam <= 0:
            raise ParameterError(f"prox parameter must be > 0, got {lam}")
        return soft_threshold(v, lam * self.weight)


class Box:
    """Indicator of the box [lo, hi]^n; prox is the clamp for any lam > 0."""

    def __init__(self, lo: float, hi: float):
        if lo > hi:
            raise ParameterError(f"empty box: lo={lo} > hi={hi}")
        self.lo = float(lo)
        self.hi = float(hi)

    def value(self, x: Element) -> float:
        return 0.0 if bool(np.all(x >= self.lo) and np.all(x <= self.hi)) else np.inf

    def prox(self, v: Element, lam: float) -> Element:
        if lam <= 0:
            raise ParameterError(f"prox parameter must be > 0, got {lam}")
        return project_box(v, self.lo, self.hi)


class Nuclear:
    """Weighted nuclear norm of a matrix; prox is singular-value shrinkage."""

    def __init__(self, weight: float):
        if weight < 0:
            raise ParameterError(f"nuclear weight must be >= 0, got {weight}")
        self.weight = float(weight)

    def value(self, x: Element) -> float:
        return self.weight * float(np.sum(np.linalg.svd(x, compute_uv=False)))

    def prox(self, v: Element, lam: float) -> Element:
        if lam <= 0:
            raise ParameterError(f"prox parameter must be > 0, got {lam}")
        return prox_nuclear(v, lam * self.weight)


class LeastSquares:
    """0.5*||A x - b||^2: smooth (gradient A^T(Ax-b)) and prox-capable.

    The prox u solves u + lam*A^T (A u - b) = v through the inverse of the
    smaller of two SPD systems, cached per ``lam`` (the solvers call the
    prox every iteration at fixed ``lam``):

    * m >= n: u = (I + lam*A^T A)^{-1} (v + lam*A^T b), with the n x n
      inverse;
    * m < n: the residual w = A u - b solves (I + lam*A A^T) w = A v - b,
      and u = v - lam*A^T w (the matrix inversion lemma of Boyd et al.
      2011, *Distributed Optimization and Statistical Learning via ADMM*,
      sec. 4.2.4), with the m x m inverse.  Solving for the residual,
      rather than applying the lemma to v + lam*A^T b, keeps u from being
      the small difference of two large vectors when lam*||A||^2 is large.

    The cached inverse is min(m, n) square.
    """

    def __init__(self, A, b):
        self.A = as_element(A, "A")
        self.b = as_element(b, "b")
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ParameterError(
                f"inconsistent dimensions: A {self.A.shape}, b {self.b.shape}"
            )
        self._wide = self.A.shape[0] < self.A.shape[1]
        shift = -self.b if self._wide else self.A.T @ self.b
        self._factor = _CholeskyCache(partial(_smaller_gram, self.A), shift)
        self._lipschitz: float | None = None

    def value(self, x: Element) -> float:
        r = self.A @ x - self.b
        return 0.5 * float(r @ r)

    def grad(self, x: Element) -> Element:
        return self.A.T @ (self.A @ x - self.b)

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = gram_spectral_norm(self.A)
        return self._lipschitz

    def prox(self, v: Element, lam: float) -> Element:
        if lam <= 0:
            raise ParameterError(f"prox parameter must be > 0, got {lam}")
        if v.shape[0] != self.A.shape[1]:
            raise ParameterError(f"v has shape {v.shape}, expected ({self.A.shape[1]},)")
        inverse, shift = self._factor(lam)
        if not self._wide:
            return inverse @ (v + shift)
        # the inverse maps lam*(A v - b) to lam*w
        return v - self.A.T @ (inverse @ (lam * (self.A @ v) + shift))


class Quadratic:
    """0.5*x^T P x + q^T x for symmetric positive semidefinite P.

    Smooth and prox-capable; the prox solves (I + lam*P) u = v - lam*q
    with the inverse of I + lam*P, cached per ``lam``.
    """

    def __init__(self, P, q=None):
        self.P = as_element(P, "P")
        if self.P.ndim != 2 or self.P.shape[0] != self.P.shape[1]:
            raise ParameterError(f"P must be square, got shape {self.P.shape}")
        self.q = np.zeros(self.P.shape[0]) if q is None else as_element(q, "q")
        if self.q.shape != (self.P.shape[0],):
            raise ParameterError(f"q has shape {self.q.shape}, expected ({self.P.shape[0]},)")
        self._factor = _CholeskyCache(self.P.copy, -self.q)
        self._lipschitz: float | None = None

    def value(self, x: Element) -> float:
        return 0.5 * float(x @ (self.P @ x)) + float(self.q @ x)

    def grad(self, x: Element) -> Element:
        return self.P @ x + self.q

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = float(np.max(np.linalg.eigvalsh(self.P)))
        return self._lipschitz

    def prox(self, v: Element, lam: float) -> Element:
        if lam <= 0:
            raise ParameterError(f"prox parameter must be > 0, got {lam}")
        inverse, shift = self._factor(lam)
        return inverse @ (v + shift)


class HuberL1:
    """Smoothed l1 penalty: weight * sum(huber_delta(x_i)).

    huber_delta(u) = u^2/(2*delta) for |u| <= delta, |u| - delta/2 beyond.
    Differentiable everywhere with a closed-form prox, so it can stand in
    for the l1 term when a fully smooth problem is needed.
    """

    def __init__(self, weight: float, delta: float = 1e-3):
        if weight < 0:
            raise ParameterError(f"weight must be >= 0, got {weight}")
        if delta <= 0:
            raise ParameterError(f"delta must be > 0, got {delta}")
        self.weight = float(weight)
        self.delta = float(delta)

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
        if lam <= 0:
            raise ParameterError(f"prox parameter must be > 0, got {lam}")
        tau = lam * self.weight
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
        r = np.where(self.mask, x, 0.0) - self.target
        return 0.5 * float(np.vdot(r, r))

    def grad(self, x: Element) -> Element:
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
