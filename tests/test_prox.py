import gc
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import make_spd
from proxflow import prox, space
from proxflow.errors import NumericalError, ParameterError


# ---------------------------------------------------------------------------
# independent oracles used to derive expected values


def scalar_prox_grid(phi, v, lam, lo=-4.0, hi=4.0):
    """Two-stage dense grid search for argmin phi(x) + (x-v)^2/(2*lam)."""
    def objective(x):
        return phi(x) + (x - v) ** 2 / (2.0 * lam)

    grid = np.linspace(lo, hi, 80001)          # step 1e-4
    best = grid[np.argmin(objective(grid))]
    fine = np.linspace(best - 2e-4, best + 2e-4, 40001)   # step 1e-8
    return fine[np.argmin(objective(fine))]


def nuclear_prox_factored(X, tau, k=None, starts=3, seed=0):
    """Independent nuclear-prox oracle via the factorization identity

        tau*||Y||_* = min over Y = U V^T of tau*(||U||_F^2 + ||V||_F^2)/2,

    minimizing the smooth factored objective with L-BFGS from several
    starts.  Shares no code with the SVD shrinkage path.
    """
    m, n = X.shape
    k = min(m, n) if k is None else k
    rng = np.random.default_rng(seed)

    def split(z):
        return z[: m * k].reshape(m, k), z[m * k:].reshape(n, k)

    def fun(z):
        U, V = split(z)
        R = U @ V.T - X
        val = 0.5 * tau * (np.sum(U * U) + np.sum(V * V)) + 0.5 * np.sum(R * R)
        gU = tau * U + R @ V
        gV = tau * V + R.T @ U
        return val, np.concatenate([gU.ravel(), gV.ravel()])

    best_val, best_Y = np.inf, None
    for _ in range(starts):
        z0 = 0.5 * rng.standard_normal(m * k + n * k)
        res = minimize(fun, z0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-12})
        U, V = split(res.x)
        Y = U @ V.T
        val = tau * np.sum(np.linalg.svd(Y, compute_uv=False)) + 0.5 * np.sum((Y - X) ** 2)
        if val < best_val:
            best_val, best_Y = val, Y
    return best_Y, best_val


def nuclear_objective(Y, X, tau):
    return tau * float(np.sum(np.linalg.svd(Y, compute_uv=False))) \
        + 0.5 * float(np.sum((Y - X) ** 2))


# ---------------------------------------------------------------------------
# soft threshold


def test_soft_threshold_zero_input():
    np.testing.assert_array_equal(prox.soft_threshold(np.zeros(2), 1.0), np.zeros(2))


def test_soft_threshold_against_grid_oracle():
    v = np.array([2.0, -0.3])
    tau = 0.5
    got = prox.soft_threshold(v, tau)
    np.testing.assert_allclose(got, [1.5, 0.0], atol=1e-15)
    for vi, gi in zip(v, got):
        oracle = scalar_prox_grid(lambda x: tau * np.abs(x), vi, 1.0)
        assert abs(gi - oracle) <= 1e-6


def test_soft_threshold_tau_zero_is_identity():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(prox.soft_threshold(v, 0.0), v)


def test_soft_threshold_tie_maps_to_zero():
    assert prox.soft_threshold(np.array([0.5, -0.5]), 0.5) == pytest.approx([0.0, 0.0])


def test_soft_threshold_negative_tau():
    with pytest.raises(ParameterError):
        prox.soft_threshold(np.ones(2), -0.1)


# ---------------------------------------------------------------------------
# least squares prox


def test_prox_least_squares_zero_matrix_is_identity(rng):
    v = rng.standard_normal(4)
    out = prox.LeastSquares(np.zeros((3, 4)), np.zeros(3)).prox(v, 0.7)
    np.testing.assert_allclose(out, v, rtol=1e-14)


def test_prox_least_squares_identity_matrix():
    v = np.array([2.0, -4.0, 6.0])
    out = prox.LeastSquares(np.eye(3), np.zeros(3)).prox(v, 1.0)
    np.testing.assert_allclose(out, v / 2.0, rtol=1e-14)


def test_prox_least_squares_matches_eigendecomposition_oracle(rng):
    A = rng.standard_normal((5, 8))
    b = rng.standard_normal(5)
    v = rng.standard_normal(8)
    lam = 0.3
    got = prox.LeastSquares(A, b).prox(v, lam)
    # independent route: eigendecomposition of A^T A
    eigvals, Q = np.linalg.eigh(A.T @ A)
    rhs = v + lam * (A.T @ b)
    oracle = Q @ ((Q.T @ rhs) / (1.0 + lam * eigvals))
    np.testing.assert_allclose(got, oracle, atol=1e-8, rtol=1e-8)


def test_prox_least_squares_residual_contract(rng):
    for _ in range(10):
        A = rng.standard_normal((6, 9))
        b = rng.standard_normal(6)
        v = rng.standard_normal(9)
        lam = float(10.0 ** rng.uniform(-2, 1))
        ls = prox.LeastSquares(A, b)
        x = ls.prox(v, lam)
        resid = space.norm((np.eye(9) + lam * A.T @ A) @ x - v - lam * A.T @ b)
        assert resid <= 1e-10 * (1.0 + space.norm(v))


def test_prox_least_squares_dimension_mismatch(rng):
    ls = prox.LeastSquares(rng.standard_normal((4, 5)), np.ones(4))
    with pytest.raises(ParameterError):
        ls.prox(np.ones(3), 1.0)


def test_prox_quadratic_dimension_mismatch():
    # (I + lam*P)^{-1} @ (v - lam*q) would broadcast a length-1 v to
    # (0.5, 0.625) here; the shape is checked before any factor is built
    quad = prox.Quadratic(np.diag([1.0, 2.0]), np.array([0.5, -0.5]))
    for v in (np.array([1.0]), np.ones(3), np.ones((2, 2))):
        message = re.escape(f"v has shape {v.shape}, expected (2,)")
        with pytest.raises(ParameterError, match="^" + message):
            quad.prox(v, 0.5)
    assert quad._factor.cache_info().currsize == 0


_LS = prox.LeastSquares(np.arange(15.0).reshape(3, 5), np.ones(3))
_MASKED = prox.MaskedQuadratic(np.ones((2, 2), bool), np.ones((2, 2)))


@pytest.mark.parametrize("call,found,expected", [
    # numpy would return a (5, 3) array for both
    (lambda: _LS.prox(np.zeros((5, 1)), 0.5), "v has shape (5, 1)", "(5,)"),
    (lambda: _LS.grad(np.zeros((5, 1))), "x has shape (5, 1)", "(5,)"),
    # numpy would broadcast the row against both rows of the mask
    (lambda: _MASKED.grad(np.zeros((1, 2))), "x has shape (1, 2)", "(2, 2)"),
    (lambda: _MASKED.value(np.zeros((1, 2))), "x has shape (1, 2)", "(2, 2)"),
    # numpy's SVD would fail on the vector and batch the stack
    (lambda: prox.Nuclear(1.0).prox(np.ones(4), 0.5), "v has shape (4,)", "a matrix (2-D)"),
    (lambda: prox.Nuclear(1.0).prox(np.ones((2, 2, 2)), 0.5), "v has shape (2, 2, 2)",
     "a matrix (2-D)"),
], ids=["least-squares-prox", "least-squares-grad", "masked-grad", "masked-value",
        "nuclear-vector", "nuclear-stack"])
def test_oracles_refuse_a_point_of_the_wrong_shape(call, found, expected):
    with pytest.raises(ParameterError, match=re.escape(f"{found}, expected {expected}")):
        call()
    assert _LS._factor.cache_info().currsize == 0


@pytest.mark.parametrize("shape", [(50, 250), (250, 50), (60, 60)],
                         ids=["wide", "tall", "square"])
@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0, 1e3])
def test_least_squares_prox_matches_dense_solve(rng, shape, lam):
    m, n = shape
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    v = rng.standard_normal(n)
    x = prox.LeastSquares(A, b).prox(v, lam)
    system = np.eye(n) + lam * (A.T @ A)
    rhs = v + lam * (A.T @ b)
    tol = 1e-10 * (1.0 + lam * np.linalg.norm(A, 2) ** 2)
    assert space.norm(system @ x - rhs) <= tol * space.norm(rhs)
    dense = np.linalg.solve(system, rhs)
    assert space.norm(x - dense) <= tol * space.norm(dense)


@pytest.mark.parametrize("shape", [(5, 8), (8, 5), (6, 6)])
def test_least_squares_factor_is_m_by_m(rng, shape):
    ls = prox.LeastSquares(rng.standard_normal(shape), rng.standard_normal(shape[0]))
    ls.prox(rng.standard_normal(shape[1]), 0.5)
    m = shape[0]
    factor, _ = ls._factor(0.5)
    assert factor.shape == (m, m)


@pytest.mark.parametrize("shape", [(60, 20), (60, 60)], ids=["tall", "square"])
@pytest.mark.parametrize("lam", [1e-3, 0.1, 10.0, 1e3])
def test_least_squares_matches_its_n_by_n_quadratic_route(rng, shape, lam):
    # for m >= n, Quadratic(A^T A, -A^T b) inverts the smaller n x n system
    m, n = shape
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    v = rng.standard_normal(n)
    ls, quad = prox.LeastSquares(A, b), prox.Quadratic(A.T @ A, -(A.T @ b))
    tol = 1e-10 * (1.0 + lam * np.linalg.norm(A, 2) ** 2)
    for got, want in ((ls.prox(v, lam), quad.prox(v, lam)), (ls.grad(v), quad.grad(v))):
        assert space.norm(got - want) <= tol * space.norm(want)
    assert ls.value(v) == pytest.approx(quad.value(v) + 0.5 * float(b @ b), rel=1e-12)


@pytest.mark.parametrize("shape", [(50, 250), (250, 50), (60, 60)],
                         ids=["wide", "tall", "square"])
def test_gram_spectral_norm_is_exact(rng, shape):
    A = rng.standard_normal(shape)
    expected = np.linalg.norm(A, 2) ** 2
    L = prox.gram_spectral_norm(A)
    assert abs(L - expected) <= 1e-12 * expected
    assert prox.LeastSquares(A, np.zeros(shape[0])).lipschitz() == L


def test_gram_spectral_norm_zero_matrix():
    assert prox.gram_spectral_norm(np.zeros((4, 7))) == 0.0


def test_quadratic_refuses_a_p_that_is_not_symmetric():
    # the Cholesky factor reads only P's lower triangle while grad reads
    # all of it: this P's prox would return (0.5, -0.5), where
    # u + lam*grad(u) - v = (-0.25, 0)
    with pytest.raises(ParameterError, match=r"^P must be symmetric"):
        prox.Quadratic(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ParameterError, match=r"^P must be symmetric"):
        prox.Quadratic(np.array([[1.0, 1e-11], [0.0, 1.0]]))
    # a rounding-level asymmetry, as a product of factors leaves, is accepted
    prox.Quadratic(np.array([[1.0, 1e-13], [0.0, 1.0]]))


@pytest.mark.parametrize("kind", ["least-squares", "quadratic"])
def test_factor_is_built_once_per_lam_and_never_for_a_refused_one(rng, monkeypatch, kind):
    builds = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: builds.append(1) or cholesky(a))
    oracle = (prox.LeastSquares(rng.standard_normal((4, 6)), rng.standard_normal(4))
              if kind == "least-squares" else prox.Quadratic(make_spd(6, rng)))
    v = rng.standard_normal(6)
    for lam in (0.0, -1.0, np.nan, np.inf):
        for _ in range(2):
            with pytest.raises(ParameterError, match="^prox parameter must be finite"):
                oracle.prox(v, lam)
    assert builds == []
    first = oracle.prox(v, 0.5)
    np.testing.assert_array_equal(oracle.prox(v, 0.5), first)
    oracle.prox(v, 2.0)
    assert len(builds) == 2


def test_quadratic_not_psd_raises_numerical_error():
    quad = prox.Quadratic(np.diag([-5.0, 1.0]))
    with pytest.raises(NumericalError, match=r"shape \(2, 2\).*lam=1.0"):
        quad.prox(np.ones(2), 1.0)


_NO_SCIPY_CODE = """
import sys
import numpy as np
import proxflow.cli
from proxflow import prox
rng = np.random.default_rng(0)
for m, n in [(5, 8), (8, 5)]:
    A, b = rng.standard_normal((m, n)), rng.standard_normal(m)
    prox.LeastSquares(A, b).prox(rng.standard_normal(n), 0.5)
prox.Quadratic(np.diag([2.0, 1.0, 0.5])).prox(np.ones(3), 1.0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_and_quadratic_proxes_load_no_scipy():
    src = str(Path(prox.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_CODE], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_least_squares_cache_concurrent_reads(rng):
    from concurrent.futures import ThreadPoolExecutor

    ls = prox.LeastSquares(rng.standard_normal((10, 15)), rng.standard_normal(10))
    v = rng.standard_normal(15)
    with ThreadPoolExecutor(max_workers=8) as ex:
        outs = list(ex.map(lambda _: ls.prox(v, 0.25), range(32)))
    for out in outs[1:]:
        np.testing.assert_array_equal(out, outs[0])


@pytest.fixture
def no_cyclic_gc():
    """Run a test with only reference counting freeing objects."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("shape", [(20, 60), (60, 20)], ids=["wide", "tall"])
def test_least_squares_freed_by_refcount(no_cyclic_gc, rng, shape):
    ls = prox.LeastSquares(rng.standard_normal(shape), rng.standard_normal(shape[0]))
    ls.prox(rng.standard_normal(shape[1]), 0.5)
    oracle, design, factor = (weakref.ref(ls), weakref.ref(ls.A),
                              weakref.ref(ls._factor(0.5)[0]))
    del ls
    assert oracle() is None and design() is None and factor() is None


def test_quadratic_freed_by_refcount(no_cyclic_gc, rng):
    quad = prox.Quadratic(make_spd(4, rng))
    quad.prox(rng.standard_normal(4), 0.5)
    oracle, matrix, factor = (weakref.ref(quad), weakref.ref(quad.P),
                              weakref.ref(quad._factor(0.5)[0]))
    del quad
    assert oracle() is None and matrix() is None and factor() is None


# ---------------------------------------------------------------------------
# box projection


def test_project_box_interior_point():
    x = np.array([0.2, 0.8])
    np.testing.assert_array_equal(prox.Box(0.0, 1.0).prox(x, 1.0), x)


def test_project_box_clamps():
    assert prox.Box(0.0, 1.0).prox(np.array([5.0]), 1.0) == pytest.approx([1.0])
    np.testing.assert_allclose(
        prox.Box(0.0, 1.0).prox(np.array([-2.0, 0.5, 3.0]), 1.0), [0.0, 0.5, 1.0])


def test_project_box_empty():
    with pytest.raises(ParameterError):
        prox.Box(1.0, 0.0)


# ---------------------------------------------------------------------------
# nuclear prox


def test_prox_nuclear_zero_matrix():
    np.testing.assert_array_equal(prox.Nuclear(1.0).prox(np.zeros((3, 2)), 1.0), np.zeros((3, 2)))


def test_prox_nuclear_diagonal():
    got = prox.Nuclear(1.0).prox(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)


def test_prox_nuclear_against_factored_oracle(rng):
    X = rng.standard_normal((6, 4))
    tau = 0.7
    got = prox.Nuclear(1.0).prox(X, tau)
    _, oracle_val = nuclear_prox_factored(X, tau)
    got_val = nuclear_objective(got, X, tau)
    assert got_val <= oracle_val + 1e-6
    assert abs(got_val - oracle_val) <= 1e-6


def test_prox_nuclear_singular_values_shrink(rng):
    X = rng.standard_normal((7, 5))
    out = prox.Nuclear(1.0).prox(X, 0.4)
    s_in = np.linalg.svd(X, compute_uv=False)
    s_out = np.linalg.svd(out, compute_uv=False)
    assert np.all(s_out <= s_in + 1e-12)


# ---------------------------------------------------------------------------
# gradient checking


def test_grad_check_quadratic(rng):
    w = prox.Quadratic(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert prox.grad_check(w, rng.standard_normal(2)) <= 1e-6


def test_grad_check_masked_quadratic(rng):
    mask = rng.random((6, 5)) < 0.5
    M = rng.standard_normal((6, 5))
    w = prox.MaskedQuadratic(mask, np.where(mask, M, 0.0))
    assert prox.grad_check(w, rng.standard_normal((6, 5))) <= 1e-5


def test_grad_check_affine(rng):
    c = rng.standard_normal(3)
    w = prox.FunctionOracle(value=lambda x: float(c @ x), grad=lambda x: c)
    assert prox.grad_check(w, rng.standard_normal(3)) <= 1e-8


class _Sub(np.ndarray):
    pass


def test_function_oracle_grad_converts_only_what_is_not_a_float64_array():
    g = np.array([1.0, -2.0])
    assert prox.FunctionOracle(value=float, grad=lambda x: g).grad(g) is g
    for raw in ([1, -2], np.array([1, -2]), np.array([1.0, -2.0], dtype=np.float32),
                np.array([1.0, -2.0], dtype=">f8"), g.view(_Sub)):
        got = prox.FunctionOracle(value=float, grad=lambda x: raw).grad(g)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.dtype.isnative
        assert np.array_equal(got, g)


def test_grad_check_huber(rng):
    w = prox.HuberL1(0.7, delta=0.05)
    x = rng.standard_normal(5)
    x = np.where(np.abs(np.abs(x) - 0.05) < 1e-3, x + 0.01, x)  # keep clear of kinks
    assert prox.grad_check(w, x) <= 1e-5


# ---------------------------------------------------------------------------
# library-wide prox properties

_LIBRARY = [
    ("l1", lambda: prox.L1(0.6), lambda rng: rng.standard_normal(5)),
    ("box", lambda: prox.Box(-0.5, 1.0), lambda rng: 2.0 * rng.standard_normal(5)),
    ("nuclear", lambda: prox.Nuclear(0.4), lambda rng: rng.standard_normal((4, 3))),
    ("least_squares",
     lambda: prox.LeastSquares(np.random.default_rng(3).standard_normal((4, 6)),
                               np.random.default_rng(4).standard_normal(4)),
     lambda rng: rng.standard_normal(6)),
    ("quadratic",
     lambda: prox.Quadratic(np.array([[1.2, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.5]]),
                            np.array([0.2, -0.1, 0.4])),
     lambda rng: rng.standard_normal(3)),
    ("huber", lambda: prox.HuberL1(0.7, 0.1), lambda rng: rng.standard_normal(5)),
]


@pytest.mark.parametrize("name,make,draw", _LIBRARY, ids=[t[0] for t in _LIBRARY])
def test_prox_optimality_under_perturbation(name, make, draw, rng):
    oracle = make()
    lam = 0.7

    def objective(p, v):
        val = oracle.value(p)
        return val + space.norm(p - v) ** 2 / (2.0 * lam)

    for _ in range(5):
        v = draw(rng)
        p = oracle.prox(v, lam)
        base = objective(p, v)
        assert np.isfinite(base)
        for _ in range(50):
            delta = rng.standard_normal(p.shape)
            delta *= rng.random() * 0.1 / max(space.norm(delta), 1e-12)
            assert base <= objective(p + delta, v) + 1e-10


@pytest.mark.parametrize("name,make,draw", _LIBRARY, ids=[t[0] for t in _LIBRARY])
def test_firm_nonexpansiveness(name, make, draw, rng):
    oracle = make()
    lam = 0.9
    for _ in range(40):
        u, v = draw(rng), draw(rng)
        ju, jv = oracle.prox(u, lam), oracle.prox(v, lam)
        lhs = space.norm(ju - jv) ** 2
        rhs = space.inner(ju - jv, u - v)
        assert lhs <= rhs + 1e-10


# the nonsmooth oracles at a drawn weight (the box is [-weight, weight]),
# on points of a drawn shape, at a drawn lam
_NONSMOOTH = {"l1": prox.L1, "box": lambda weight: prox.Box(-weight, weight),
              "nuclear": prox.Nuclear, "huber": lambda weight: prox.HuberL1(weight, 0.1)}
_nonsmooth_case = given(st.sampled_from(sorted(_NONSMOOTH)),
                        st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
                        st.tuples(st.integers(1, 6), st.integers(1, 6)),
                        st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
                        st.integers(0, 2**32 - 1))


@_nonsmooth_case
def test_nonsmooth_prox_optimality_property(kind, weight, shape, lam, seed):
    # p = prox(v) minimizes value(p) + ||p - v||^2 / (2 lam): no small step
    # from p lowers it, up to rounding of the objective itself
    oracle, rng = _NONSMOOTH[kind](weight), np.random.default_rng(seed)

    def objective(p, v):
        return oracle.value(p) + space.norm(p - v) ** 2 / (2.0 * lam)

    for _ in range(3):
        v = 2.0 * rng.standard_normal(shape)
        p = oracle.prox(v, lam)
        base = objective(p, v)
        assert np.isfinite(base)
        for _ in range(20):
            delta = rng.standard_normal(shape)
            delta *= rng.random() * 0.1 / max(space.norm(delta), 1e-12)
            assert base <= objective(p + delta, v) + 1e-12 * (1.0 + abs(base))


@_nonsmooth_case
def test_nonsmooth_firm_nonexpansiveness_property(kind, weight, shape, lam, seed):
    # ||J u - J v||^2 <= <J u - J v, u - v>, up to rounding
    oracle, rng = _NONSMOOTH[kind](weight), np.random.default_rng(seed)
    for _ in range(10):
        u, v = 2.0 * rng.standard_normal((2, *shape))
        ju, jv = oracle.prox(u, lam), oracle.prox(v, lam)
        lhs = space.norm(ju - jv) ** 2
        rhs = space.inner(ju - jv, u - v)
        assert lhs <= rhs + 1e-12 * (1.0 + space.norm(u - v) ** 2)


@pytest.mark.parametrize("name,make,draw", [t for t in _LIBRARY
                                            if t[0] in ("least_squares", "quadratic", "huber")],
                         ids=["least_squares", "quadratic", "huber"])
def test_resolvent_identity_smooth(name, make, draw, rng):
    # p = J(v) for smooth phi means v - p = lam * grad phi(p)
    oracle = make()
    lam = 0.6
    for _ in range(10):
        v = draw(rng)
        p = oracle.prox(v, lam)
        assert space.norm(v - p - lam * oracle.grad(p)) <= 1e-8


def prox_case(kind, k, extra, seed, lam):
    """A least-squares or PSD quadratic oracle with a point v, and ``lam``."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        B = rng.standard_normal((k, extra))   # P is singular when extra < k
        return prox.Quadratic(B @ B.T, rng.standard_normal(k)), rng.standard_normal(k), lam
    m, n = {"wide": (k, k + extra), "tall": (k + extra, k), "square": (k, k)}[kind]
    oracle = prox.LeastSquares(rng.standard_normal((m, n)), rng.standard_normal(m))
    return oracle, rng.standard_normal(n), lam


# a nearly square wide A at large lam: applying the inverse to the
# lemma's v + lam*A^T b, instead of solving for the residual, misses
# the tolerance here by a factor of 13
@example(prox_case("wide", 11, 2, 532, 838.9303037253322))
@given(st.builds(prox_case, st.sampled_from(["wide", "tall", "square", "quadratic"]),
                 st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
                 st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)))
def test_least_squares_and_quadratic_prox_optimality(case):
    # u = prox(v) solves u + lam*grad f(u) = v; the solve's error grows
    # with the system's condition number, at most 1 + lam*L
    oracle, v, lam = case
    u = oracle.prox(v, lam)
    step = lam * oracle.grad(u)
    scale = space.norm(u) + space.norm(step) + space.norm(v)
    tol = 1e-12 * (1.0 + lam * oracle.lipschitz())
    assert space.norm(u + step - v) <= tol * scale


@given(st.integers(1, 8), st.floats(-3.0, 3.0))
def test_quadratic_not_psd_property(n, log_lam):
    lam = 10.0 ** log_lam
    # one eigenvalue -2/lam makes I + lam*P indefinite
    P = np.diag(np.concatenate([[-2.0 / lam], np.ones(n - 1)]))
    pattern = rf"shape \({n}, {n}\).*lam={re.escape(str(lam))}"
    with pytest.raises(NumericalError, match=pattern):
        prox.Quadratic(P).prox(np.ones(n), lam)


def test_huber_prox_against_grid(rng):
    weight, delta, lam = 0.8, 0.2, 0.5

    def phi(x):
        a = np.abs(x)
        return weight * np.where(a <= delta, a * a / (2 * delta), a - delta / 2)

    oracle = prox.HuberL1(weight, delta=delta)
    v = np.array([1.7, -0.04, 0.31])
    got = oracle.prox(v, lam)
    for vi, gi in zip(v, got):
        assert abs(gi - scalar_prox_grid(phi, vi, lam)) <= 1e-6
