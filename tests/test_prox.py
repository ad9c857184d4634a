import gc
import weakref

import numpy as np
import pytest
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
    out = prox.prox_least_squares(v, 0.7, np.zeros((3, 4)), np.zeros(3))
    np.testing.assert_allclose(out, v, rtol=1e-14)


def test_prox_least_squares_identity_matrix():
    v = np.array([2.0, -4.0, 6.0])
    out = prox.prox_least_squares(v, 1.0, np.eye(3), np.zeros(3))
    np.testing.assert_allclose(out, v / 2.0, rtol=1e-14)


def test_prox_least_squares_matches_eigendecomposition_oracle(rng):
    A = rng.standard_normal((5, 8))
    b = rng.standard_normal(5)
    v = rng.standard_normal(8)
    lam = 0.3
    got = prox.prox_least_squares(v, lam, A, b)
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
    with pytest.raises(ParameterError):
        prox.prox_least_squares(np.ones(3), 1.0, rng.standard_normal((4, 5)), np.ones(4))


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
def test_least_squares_factor_is_smaller_side(rng, shape):
    ls = prox.LeastSquares(rng.standard_normal(shape), rng.standard_normal(shape[0]))
    ls.prox(rng.standard_normal(shape[1]), 0.5)
    k = min(shape)
    factor, _ = ls._factor(0.5)
    assert factor.shape == (k, k)


def test_quadratic_not_psd_raises_numerical_error():
    quad = prox.Quadratic(np.diag([-5.0, 1.0]))
    with pytest.raises(NumericalError, match=r"shape \(2, 2\).*lam=1.0"):
        quad.prox(np.ones(2), 1.0)


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
    np.testing.assert_array_equal(prox.project_box(x, 0.0, 1.0), x)


def test_project_box_clamps():
    assert prox.project_box(np.array([5.0]), 0.0, 1.0) == pytest.approx([1.0])
    np.testing.assert_allclose(
        prox.project_box(np.array([-2.0, 0.5, 3.0]), 0.0, 1.0), [0.0, 0.5, 1.0])


def test_project_box_empty():
    with pytest.raises(ParameterError):
        prox.project_box(np.zeros(2), 1.0, 0.0)


# ---------------------------------------------------------------------------
# nuclear prox


def test_prox_nuclear_zero_matrix():
    np.testing.assert_array_equal(prox.prox_nuclear(np.zeros((3, 2)), 1.0), np.zeros((3, 2)))


def test_prox_nuclear_diagonal():
    got = prox.prox_nuclear(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)


def test_prox_nuclear_against_factored_oracle(rng):
    X = rng.standard_normal((6, 4))
    tau = 0.7
    got = prox.prox_nuclear(X, tau)
    _, oracle_val = nuclear_prox_factored(X, tau)
    got_val = nuclear_objective(got, X, tau)
    assert got_val <= oracle_val + 1e-6
    assert abs(got_val - oracle_val) <= 1e-6


def test_prox_nuclear_singular_values_shrink(rng):
    X = rng.standard_normal((7, 5))
    out = prox.prox_nuclear(X, 0.4)
    s_in = np.linalg.svd(X, compute_uv=False)
    s_out = np.linalg.svd(out, compute_uv=False)
    assert np.all(s_out <= s_in + 1e-12)


# ---------------------------------------------------------------------------
# cayley map


def test_cayley_identity_oracle(rng):
    x = rng.standard_normal(4)
    np.testing.assert_allclose(prox.cayley(prox.Zero(), 1.0, x), x, rtol=1e-15)


def test_cayley_soft_threshold_value():
    # prox of the l1 oracle at v=2 with lam*weight = 0.5 is 1.5, so the
    # reflection gives 2*1.5 - 2 = 1
    out = prox.cayley(prox.L1(0.5), 1.0, np.array([2.0]))
    assert out == pytest.approx([1.0])


def test_cayley_composition_nonexpansive(rng):
    quad = prox.Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]))
    lam = 0.8
    for _ in range(25):
        u, v = rng.standard_normal((2, 2))
        cu = prox.cayley(quad, lam, prox.cayley(quad, lam, u))
        cv = prox.cayley(quad, lam, prox.cayley(quad, lam, v))
        assert space.norm(cu - cv) <= space.norm(u - v) + 1e-12


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
