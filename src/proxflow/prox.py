"""Proximal and gradient oracles, plus the operator calculus they support.

Oracles are duck-typed.  A prox-capable term exposes

    prox(v, lam)   the resolvent (I + lam*T)^{-1} at v, i.e. the minimizer
                   of  term(x) + ||x - v||^2 / (2*lam),

and a smooth term exposes ``value(x)``, ``grad(x)`` and (when cheap) a
``lipschitz()`` estimate for the gradient.  Several classes implement
both sides and can sit in any slot of a three-term split.  Oracles are
immutable after construction except for internal factorization caches,
which are lock-protected so any number of threads may evaluate the same
oracle concurrently.  A factor cache holds only the matrix it factors,
never its oracle, so an oracle and its factors are freed by reference
counting as soon as its last reference goes, without waiting for the
cyclic garbage collector.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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


def prox_least_squares(v: Element, lam: float, A: Element, b: Element) -> Element:
    """Solve ``(I + lam*A^T A) x = v + lam*A^T b``, the prox of 0.5*||Ax-b||^2.

    One-shot form of ``LeastSquares(A, b).prox(v, lam)``; keep the oracle
    instead when calling repeatedly at fixed ``lam``, so its cached
    factorization is reused.
    """
    return LeastSquares(A, b).prox(v, lam)


def cayley(oracle, lam: float, x: Element) -> Element:
    """Reflection 2*J(x, lam) - x through the resolvent of ``oracle``."""
    if lam <= 0:
        raise ParameterError(f"prox parameter must be > 0, got {lam}")
    return 2.0 * oracle.prox(x, lam) - x


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


def gram_spectral_norm(A: Element, tol: float = 1e-12, max_iters: int = 5000) -> float:
    """Largest eigenvalue of ``A^T A`` by power iteration (deterministic start)."""
    n = A.shape[1]
    z = np.ones(n) / np.sqrt(n)
    val = 0.0
    for _ in range(max_iters):
        z = A.T @ (A @ z)
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            return 0.0
        z /= nz
        new_val = float(z @ (A.T @ (A @ z)))
        if abs(new_val - val) <= tol * max(1.0, new_val):
            return new_val
        val = new_val
    return val


# ---------------------------------------------------------------------------
# factorization cache


class _CholeskyCache:
    """Cholesky factors of I + lam*M, one per ``lam``, built on first use.

    ``matrix()`` returns a fresh array holding M; it is scaled, shifted
    and factored in place.  Adding 1 on the diagonal gives the same bits
    as ``np.eye(n) + lam*M`` without the identity temporary.  Solvers
    call a prox every iteration at fixed ``lam``, so each factor is built
    once; the build is lock-protected so concurrent callers share it.

    ``matrix`` must close over M alone: a builder that reaches the owning
    oracle (a bound method, a lambda over ``self``) makes a reference
    cycle that keeps M alive until the cyclic garbage collector runs.
    """

    def __init__(self, matrix):
        self._matrix = matrix
        self._factors: dict[float, tuple] = {}
        self._lock = threading.Lock()

    def __call__(self, lam: float) -> tuple:
        fact = self._factors.get(lam)
        if fact is None:
            with self._lock:
                fact = self._factors.get(lam)
                if fact is None:
                    system = self._matrix()
                    system *= lam
                    system.flat[:: system.shape[0] + 1] += 1.0
                    try:
                        fact = cho_factor(system, overwrite_a=True)
                    except np.linalg.LinAlgError as exc:
                        raise NumericalError(
                            f"Cholesky factorization failed for system of shape "
                            f"{system.shape} (lam={lam}): {exc}"
                        ) from exc
                    self._factors[lam] = fact
        return fact


def _gram_builder(A: np.ndarray, wide: bool):
    """Builder of A A^T (``wide``) or A^T A for a ``_CholeskyCache``."""

    def build() -> np.ndarray:
        gram = A @ A.T if wide else A.T @ A
        # a Gram product is exactly symmetric, so its Fortran-ordered
        # transpose is the same matrix and LAPACK factors it without a copy
        return gram.T

    return build


# ---------------------------------------------------------------------------
# oracle classes


class Zero:
    """The zero function: prox is the identity, gradient vanishes."""

    name = "zero"

    def value(self, x: Element) -> float:
        return 0.0

    def grad(self, x: Element) -> Element:
        return np.zeros_like(x)

    def prox(self, v: Element, lam: float) -> Element:
        return v

    def lipschitz(self) -> float:
        return 0.0


class L1:
    """Weighted l1 norm ``weight * sum(|x_i|)`` (nonsmooth, prox only)."""

    def __init__(self, weight: float):
        if weight < 0:
            raise ParameterError(f"l1 weight must be >= 0, got {weight}")
        self.weight = float(weight)
        self.name = f"l1(weight={weight:g})"

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
        self.name = f"box[{lo:g},{hi:g}]"

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
        self.name = f"nuclear(weight={weight:g})"

    def value(self, x: Element) -> float:
        return self.weight * float(np.sum(np.linalg.svd(x, compute_uv=False)))

    def prox(self, v: Element, lam: float) -> Element:
        if lam <= 0:
            raise ParameterError(f"prox parameter must be > 0, got {lam}")
        return prox_nuclear(v, lam * self.weight)


class LeastSquares:
    """0.5*||A x - b||^2: smooth (gradient A^T(Ax-b)) and prox-capable.

    The prox solves the SPD system (I + lam*A^T A) x = v + lam*A^T b
    through the smaller of two Cholesky factorizations, cached per ``lam``
    (the solvers call the prox every iteration at fixed ``lam``):

    * m >= n: factor the n x n system I + lam*A^T A directly;
    * m < n: factor the m x m system I + lam*A A^T and apply the matrix
      inversion lemma (Boyd et al. 2011, *Distributed Optimization and
      Statistical Learning via ADMM*, sec. 4.2.4)

          (I + lam*A^T A)^{-1} = I - lam*A^T (I + lam*A A^T)^{-1} A,

      so with r = v + lam*A^T b the prox is r - lam*A^T (I + lam*A A^T)^{-1} A r.

    The cached factor is min(m, n) square.
    """

    def __init__(self, A, b):
        self.A = as_element(A, "A")
        self.b = as_element(b, "b")
        if self.A.ndim != 2 or self.b.ndim != 1 or self.A.shape[0] != self.b.shape[0]:
            raise ParameterError(
                f"inconsistent dimensions: A {self.A.shape}, b {self.b.shape}"
            )
        self.name = f"least_squares({self.A.shape[0]}x{self.A.shape[1]})"
        self._wide = self.A.shape[0] < self.A.shape[1]
        self._Atb = self.A.T @ self.b
        self._factor = _CholeskyCache(_gram_builder(self.A, self._wide))
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
        fact = self._factor(lam)
        rhs = v + lam * self._Atb
        if not self._wide:
            return cho_solve(fact, rhs)
        return rhs - lam * (self.A.T @ cho_solve(fact, self.A @ rhs))


class Quadratic:
    """0.5*x^T P x + q^T x for symmetric positive semidefinite P.

    Smooth and prox-capable; the prox solves (I + lam*P) u = v - lam*q
    with a cached Cholesky factorization per ``lam``.
    """

    def __init__(self, P, q=None):
        self.P = as_element(P, "P")
        if self.P.ndim != 2 or self.P.shape[0] != self.P.shape[1]:
            raise ParameterError(f"P must be square, got shape {self.P.shape}")
        self.q = np.zeros(self.P.shape[0]) if q is None else as_element(q, "q")
        if self.q.shape != (self.P.shape[0],):
            raise ParameterError(f"q has shape {self.q.shape}, expected ({self.P.shape[0]},)")
        self.name = f"quadratic(n={self.P.shape[0]})"
        P = self.P
        self._factor = _CholeskyCache(lambda: np.array(P, order="F"))
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
        return cho_solve(self._factor(lam), v - lam * self.q)


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
        self.name = f"huber_l1(weight={weight:g},delta={delta:g})"

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
        self.name = f"masked_quadratic({self.mask.sum()} observed)"

    def value(self, x: Element) -> float:
        r = np.where(self.mask, x, 0.0) - self.target
        return 0.5 * float(np.vdot(r, r))

    def grad(self, x: Element) -> Element:
        return np.where(self.mask, x, 0.0) - self.target

    def lipschitz(self) -> float:
        return 1.0


class FunctionOracle:
    """Wrap explicit value/grad callables (smooth term without a prox)."""

    def __init__(self, value, grad, lipschitz=None, name: str = "function"):
        self._value = value
        self._grad = grad
        self._lipschitz = lipschitz
        self.name = name

    def value(self, x: Element) -> float:
        return float(self._value(x))

    def grad(self, x: Element) -> Element:
        return np.asarray(self._grad(x), dtype=np.float64)

    def lipschitz(self):
        return self._lipschitz
