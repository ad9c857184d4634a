import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centered_quadratic_problem, quadratic_problem
from proxflow import cli, prox, space
from proxflow.damping import CombinedDamping, ConstantDamping, DecayingDamping, NoDamping
from proxflow.errors import ConfigurationError, ParameterError
from proxflow.experiments import gen_lasso, lasso_problem
from proxflow.solvers import (
    CONVERGED,
    DIVERGED,
    DIVERGENCE_NORM,
    MAX_ITERS,
    METHODS,
    STATUSES,
    Problem,
    SolverState,
    StepConfig,
    check_method,
    dy_fixed_point_operator,
    initial_state,
    run,
    step_admm,
    step_davis_yin,
    step_tseng,
    stop_on_estimate_change,
    stop_on_residual,
)


def random_state(rng, n, c=True):
    # gamma = 0 keeps x_hat = x, the regime the reduction identities live in
    x = rng.standard_normal(n)
    x_prev = rng.standard_normal(n)
    cvec = rng.standard_normal(n) if c else np.zeros(n)
    return SolverState(x=x, x_prev=x_prev, x_hat=x, c=cvec, k=int(rng.integers(0, 50)))


# ---------------------------------------------------------------------------
# configuration contracts


def test_problem_needs_a_term():
    with pytest.raises(ConfigurationError):
        Problem()


def test_step_admm_needs_f_and_g(rng):
    state = initial_state(np.zeros(3))
    cfg = StepConfig(lam=0.5)
    with pytest.raises(ConfigurationError):
        step_admm(state, Problem(g=prox.L1(1.0)), cfg)


def test_step_tseng_rejects_f(rng):
    state = initial_state(np.zeros(3))
    cfg = StepConfig(lam=0.5)
    p = Problem(f=prox.L1(1.0), g=prox.L1(1.0),
                w=prox.Quadratic(np.eye(3)))
    with pytest.raises(ConfigurationError):
        step_tseng(state, p, cfg)


def test_step_config_rejects_none_schedule():
    # NoDamping() is the one way to ask for no momentum
    with pytest.raises(ParameterError, match="NoDamping"):
        StepConfig(lam=0.1, schedule=None)
    assert StepConfig(lam=0.1).schedule == NoDamping()


def test_step_config_h_derivation():
    assert StepConfig(lam=0.04, schedule=ConstantDamping(1.0)).h == pytest.approx(0.2)
    assert StepConfig(lam=0.04).h == pytest.approx(0.04)
    with pytest.raises(ParameterError):
        StepConfig(lam=0.0)


@pytest.mark.parametrize("lam,schedule", [
    (0.1, ConstantDamping(5.0)),          # r2*h = 5*sqrt(0.1) = 1.58
    (1.0, CombinedDamping(3.0, 2.0)),     # r2*h = 2
], ids=["constant", "combined"])
def test_step_config_rejects_momentum_zero_at_every_k(lam, schedule):
    # r2*h > 1 clamps gamma_k to 0 for every k, so it is refused once, up front
    with pytest.raises(ParameterError, match=r"r2\*h") as exc:
        StepConfig(lam=lam, schedule=schedule)
    assert f"lam = {lam}" in str(exc.value)


def test_step_config_accepts_r2_h_equal_one():
    cfg = StepConfig(lam=0.25, schedule=ConstantDamping(2.0))
    assert cfg.schedule.r2 * cfg.h == 1.0
    assert StepConfig(lam=100.0, schedule=DecayingDamping(3.0)).h == 10.0


# ---------------------------------------------------------------------------
# reduction identities against independent implementations


def test_admm_reduces_to_textbook_admm(rng):
    # w absent, no momentum: match the scaled-form two-block iteration
    # z+ = prox_g(xf + u), xf = prox_f(z - u), u+ = u + xf - z+,
    # under the dictionary z = x, u = -lam*c.
    inst = gen_lasso(12, 30, seed=5)
    problem = lasso_problem(inst, "admm")
    lam = 0.4
    cfg = StepConfig(lam=lam)
    for _ in range(100):
        state = random_state(rng, 30)
        new = step_admm(state, problem, cfg)
        z, u = state.x, -lam * state.c
        xf = problem.f.prox(z - u, lam)
        z_new = problem.g.prox(xf + u, lam)
        u_new = u + xf - z_new
        assert space.norm(new.last_half - xf) <= 1e-12
        assert space.norm(new.x - z_new) <= 1e-12
        assert space.norm(-lam * new.c - u_new) <= 1e-12


@st.composite
def lasso_cases(draw):
    """(m, n, lam, seed): a lasso instance with n >= m and a step size."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(m, 4 * m))
    return m, n, draw(st.floats(0.01, 2.0)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=50)
@given(lasso_cases())
def test_davis_yin_reduces_to_douglas_rachford(case):
    m, n, lam, seed = case
    inst = gen_lasso(m, n, seed=seed)
    problem = lasso_problem(inst, "dr")      # f = least squares, g = l1, w absent
    cfg = StepConfig(lam=lam)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        state = random_state(rng, n)
        new = step_davis_yin(state, problem, cfg)
        x = state.x_hat
        jf = problem.f.prox(x, lam)
        reflected = problem.g.prox(2.0 * jf - x, lam)
        expected = x + reflected - jf
        assert space.norm(new.x - expected) <= 1e-12


@settings(max_examples=50)
@given(lasso_cases())
def test_davis_yin_reduces_to_proximal_gradient(case):
    m, n, lam, seed = case
    inst = gen_lasso(m, n, seed=seed)
    problem = lasso_problem(inst, "fb")      # f absent, g = l1, w = least squares
    cfg = StepConfig(lam=lam)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        state = random_state(rng, n)
        new = step_davis_yin(state, problem, cfg)
        x = state.x_hat
        expected = problem.g.prox(x - lam * problem.w.grad(x), lam)
        assert space.norm(new.x - expected) <= 1e-12


def test_tseng_matches_operator_transcription(rng):
    inst = gen_lasso(12, 30, seed=8)
    problem = lasso_problem(inst, "tseng")
    lam = 0.05
    cfg = StepConfig(lam=lam)
    for _ in range(100):
        state = random_state(rng, 30)
        new = step_tseng(state, problem, cfg)
        x = state.x_hat
        # direct transcription: (I - lam*gw) o J_g o (I - lam*gw) + lam*gw
        y = problem.g.prox(x - lam * problem.w.grad(x), lam)
        expected = y - lam * problem.w.grad(y) + lam * problem.w.grad(x)
        assert space.norm(new.x - expected) <= 1e-12


def test_tseng_affine_w_has_vanishing_correction(rng):
    c = rng.standard_normal(4)
    w = prox.FunctionOracle(value=lambda x: float(c @ x), grad=lambda x: c)
    problem = Problem(g=prox.L1(0.3), w=w)
    cfg = StepConfig(lam=0.5)
    state = random_state(rng, 4)
    new = step_tseng(state, problem, cfg)
    assert space.norm(new.x - new.last_half) == 0.0


# ---------------------------------------------------------------------------
# trivial step behaviors


def test_admm_with_identity_proxes_is_gradient_step(rng):
    w = prox.Quadratic(np.diag([1.0, 2.0]), np.array([0.5, -0.5]))
    problem = Problem(f=prox.L1(0.0), g=prox.L1(0.0), w=w)
    lam = 0.3
    state = initial_state(rng.standard_normal(2))
    new = step_admm(state, problem, StepConfig(lam=lam))
    expected = state.x - lam * w.grad(state.x)
    np.testing.assert_allclose(new.last_half, expected, rtol=1e-14)
    np.testing.assert_allclose(new.x, expected, rtol=1e-14)
    np.testing.assert_array_equal(new.c, np.zeros(2))


def test_admm_stationary_point_is_fixed(rng):
    problem = quadratic_problem(seed=3)
    lam = 0.3
    # total minimizer: (Pf+Pg+Pw) x* = -(qf+qg+qw)
    P = problem.f.P + problem.g.P + problem.w.P
    q = problem.f.q + problem.g.q + problem.w.q
    x_star = np.linalg.solve(P, -q)
    c_star = -problem.g.grad(x_star)
    state = SolverState(x=x_star, x_prev=x_star, x_hat=x_star, c=c_star, k=4)
    new = step_admm(state, problem, StepConfig(lam=lam, schedule=ConstantDamping(0.5)))
    assert space.norm(new.x - x_star) <= 1e-12
    assert space.norm(new.c - c_star) <= 1e-12
    assert space.norm(new.x_hat - x_star) <= 1e-12


def test_tseng_stationary_point_is_fixed():
    problem = Problem(g=centered_quadratic_problem(seed=2).g,
                      w=centered_quadratic_problem(seed=2).w)
    x_star = np.zeros(3)     # both terms minimized at the origin
    state = SolverState(x=x_star, x_prev=x_star, x_hat=x_star, c=np.zeros(3), k=1)
    new = step_tseng(state, problem, StepConfig(lam=0.4))
    assert space.norm(new.x - x_star) <= 1e-14


def test_scalar_davis_yin_contracts_to_known_minimizer():
    # 1-D quadratics a,b,c with minimizer 0; hand-rolled scalar recurrence
    a, b, c = 0.8, 0.5, 0.3
    lam = 0.6
    problem = Problem(f=prox.Quadratic(np.array([[a]])),
                      g=prox.Quadratic(np.array([[b]])),
                      w=prox.Quadratic(np.array([[c]])))
    cfg = StepConfig(lam=lam)

    def scalar_step(x):
        jf = x / (1 + lam * a)
        half = 2 * jf - x
        tq = (half - lam * c * jf) / (1 + lam * b)
        return x + tq - jf

    x_np = np.array([1.7])
    x_sc = 1.7
    state = initial_state(x_np)
    for _ in range(60):
        state = step_davis_yin(state, problem, cfg)
        x_sc = scalar_step(x_sc)
        assert abs(state.x[0] - x_sc) <= 1e-12 * max(1.0, abs(x_sc))
    assert abs(state.x[0]) < 1e-3 * 1.7     # contraction toward 0


# ---------------------------------------------------------------------------
# fixed-point operators


def test_dy_operator_identity_when_all_absent_terms():
    problem = Problem(g=prox.L1(0.0))
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(dy_fixed_point_operator(problem, 0.7, x), x, rtol=1e-15)


def test_dy_operator_matches_step(rng):
    inst = gen_lasso(15, 40, seed=9)
    problem = lasso_problem(inst, "dr")
    lam = 0.2
    for _ in range(20):
        x = rng.standard_normal(40)
        state = initial_state(x)
        new = step_davis_yin(state, problem, StepConfig(lam=lam))
        px = dy_fixed_point_operator(problem, lam, x)
        assert space.norm(px - new.x) <= 1e-12


def test_dy_operator_fixed_point_from_converged_run():
    inst = gen_lasso(15, 40, seed=10)
    problem = lasso_problem(inst, "dr")
    lam = 0.2
    state, trace = run("dr", problem, StepConfig(lam=lam), np.zeros(40),
                       stop=stop_on_residual(1e-12), max_iters=100_000)
    assert trace.status == "converged"
    x = state.x
    assert space.norm(dy_fixed_point_operator(problem, lam, x) - x) <= 1e-8


def test_fixed_point_implies_stationarity_bound():
    # converged x with ||x - P(x)|| <= eps gives a gradient bound at
    # xbar = prox_f(x) with computable constant (1 + lam*Lg)/lam
    problem = quadratic_problem(seed=6)
    lam = 0.4
    state, trace = run("dy", problem, StepConfig(lam=lam), np.ones(3),
                       stop=stop_on_residual(1e-9), max_iters=50_000)
    assert trace.status == "converged"
    x = state.x
    eps = space.norm(x - dy_fixed_point_operator(problem, lam, x))
    xbar = problem.f.prox(x, lam)
    grad_total = problem.f.grad(xbar) + problem.g.grad(xbar) + problem.w.grad(xbar)
    Lg = problem.g.lipschitz()
    assert space.norm(grad_total) <= 1.0001 * (1.0 + lam * Lg) * eps / lam


def test_balance_coefficient_tracks_negative_grad_g():
    problem = quadratic_problem(seed=8)
    lam = 0.3
    state, trace = run("admm", problem, StepConfig(lam=lam), np.ones(3),
                       stop=stop_on_residual(1e-11), max_iters=50_000)
    assert trace.status == "converged"
    assert space.norm(state.c + problem.g.grad(state.x)) <= 1e-6


# ---------------------------------------------------------------------------
# run loop contracts


def test_run_rejects_zero_budget():
    problem = quadratic_problem(seed=9)
    with pytest.raises(ParameterError):
        run("dy", problem, StepConfig(lam=0.1), np.zeros(3), max_iters=0)


def test_run_single_step_budget():
    problem = quadratic_problem(seed=9)
    state, trace = run("dy", problem, StepConfig(lam=0.1), np.zeros(3), max_iters=1)
    assert state.k == 1
    assert trace.iterations == 1
    assert len(trace) == 2


def test_run_trace_shapes_and_initial_row():
    problem = quadratic_problem(seed=9)
    state, trace = run("dy", problem, StepConfig(lam=0.1), np.zeros(3), max_iters=11)
    assert len(trace.ks) == len(trace.objectives) == len(trace.residuals) == len(trace.times)
    assert trace.ks[0] == 0 and math.isnan(trace.residuals[0])
    assert trace.iterations == 11
    assert trace.ks.dtype == np.int64
    np.testing.assert_array_equal(trace.ks, np.arange(12))
    # each series owns its memory, so keeping one keeps no other alive
    series = (trace.objectives, trace.residuals, trace.times)
    assert all(s.base is None and s.dtype == np.float64 for s in series)


def test_run_converges_to_reference_on_lasso():
    from proxflow.experiments import reference_solution

    inst = gen_lasso(50, 250, seed=1)
    ref = reference_solution(inst, tol=1e-12)
    problem = lasso_problem(inst, "admm")
    state, trace = run("admm", problem, StepConfig(lam=0.1), np.zeros(250),
                       stop=stop_on_residual(1e-9), max_iters=100_000)
    assert trace.status == "converged"
    gap = abs(problem.value(state.estimate) - ref.value) / ref.value
    assert gap <= 1e-6


def test_accelerated_admm_constant_beats_plain():
    from proxflow.experiments import reference_solution

    inst = gen_lasso(50, 250, seed=1)
    ref = reference_solution(inst, tol=1e-12)
    problem = lasso_problem(inst, "admm")

    def iters_to_target(schedule):
        def rule(state, resid):
            return abs(problem.value(state.estimate) - ref.value) / ref.value <= 1e-6
        _, trace = run("admm", problem, StepConfig(lam=0.1, schedule=schedule),
                       np.zeros(250), stop=rule, max_iters=100_000)
        assert trace.status == "converged"
        return trace.iterations

    assert iters_to_target(ConstantDamping(0.5)) < iters_to_target(NoDamping())


def test_divergence_guard_reports_diverged():
    # forward-backward-forward above its 1/L stability bound blows up and
    # the guard converts that into a status instead of an overflow
    w = prox.Quadratic(np.array([[10.0]]))
    problem = Problem(g=prox.L1(1e-8), w=w)
    state, trace = run("tseng", problem, StepConfig(lam=0.3), np.array([1.0]),
                       max_iters=2000)
    assert trace.status == "diverged"
    # safely inside the bound: converges
    state, trace = run("tseng", problem, StepConfig(lam=0.05), np.array([1.0]),
                       stop=stop_on_residual(1e-12), max_iters=2000)
    assert trace.status == "converged"


def test_non_finite_iterate_reports_diverged():
    # NaN fails every comparison, so only the finiteness test catches a NaN
    # iterate; without it the run would spend its whole budget
    calls = []

    def grad(x):
        calls.append(1)
        return np.full_like(x, math.nan) if len(calls) == 4 else 2.0 * x

    w = prox.FunctionOracle(lambda x: float(x @ x), grad)
    state, trace = run("fb", Problem(g=prox.L1(1e-8), w=w), StepConfig(lam=0.1),
                       np.array([1.0, -2.0]), max_iters=50)
    assert trace.status == DIVERGED
    assert trace.iterations == 4 and np.isnan(state.x).all()


def test_status_names_bind_to_their_table_rows():
    # the names are unpacked from the table in order, and only a converged
    # run exits 0
    assert (CONVERGED, MAX_ITERS, DIVERGED) == ("converged", "max-iters", "diverged")
    assert STATUSES == {CONVERGED: 0, MAX_ITERS: 2, DIVERGED: 3}


def test_benchmark_exit_codes_match_the_status_table(benchmark_workloads):
    assert benchmark_workloads.EXIT_CODES == STATUSES


def test_run_measures_every_state_once_from_the_initial_one():
    problem = quadratic_problem(seed=9)
    x0 = np.array([0.5, -1.0, 2.0])
    seen = []

    def measure(state):
        seen.append(state)
        return float(state.k) ** 2 + 0.5

    state, trace = run("dy", problem, StepConfig(lam=0.1), x0, max_iters=7, measure=measure)
    assert len(seen) == len(trace) == 8
    assert seen[0].k == 0
    np.testing.assert_array_equal(seen[0].estimate, x0)
    assert seen[-1] is state
    np.testing.assert_array_equal(trace.objectives, [k * k + 0.5 for k in range(8)])


def test_run_default_measure_is_the_objective_at_the_estimate():
    problem = quadratic_problem(seed=9)
    _, trace = run("dy", problem, StepConfig(lam=0.1), np.ones(3), max_iters=5,
                   measure=lambda state: problem.value(state.estimate))
    _, default = run("dy", problem, StepConfig(lam=0.1), np.ones(3), max_iters=5)
    np.testing.assert_array_equal(default.objectives, trace.objectives)
    # a term without ``value`` makes the default NaN
    no_value = Problem(f=problem.f, g=SimpleNamespace(prox=problem.g.prox), w=problem.w)
    assert math.isnan(no_value.value(np.ones(3)))
    _, trace = run("dy", no_value, StepConfig(lam=0.1), np.ones(3), max_iters=3)
    assert np.all(np.isnan(trace.objectives))


@pytest.mark.parametrize("method", list(METHODS))
def test_problem_gradient_and_lipschitz_sum_the_present_terms(method):
    # bit for bit the arithmetic of the order lab's former total-gradient
    # oracle: a sum onto a zeros array in f, g, w order, and the sum of the
    # terms' estimates from 0.0
    problem = cli._quad_problem_for(method)
    terms = [t for t in (problem.f, problem.g, problem.w) if t is not None]
    x = np.array([1.2, -0.7])
    expected = sum((t.grad(x) for t in terms), np.zeros_like(x))
    assert problem.grad(x).tobytes() == expected.tobytes()
    assert problem.lipschitz() == sum([t.lipschitz() for t in terms], 0.0)


def test_problem_lipschitz_is_none_unless_every_term_reports_one():
    f, g, _ = cli._quadratic_triple()
    w = prox.FunctionOracle(lambda x: float(x @ x), lambda x: 2.0 * x)
    assert Problem(f=f, g=g, w=w).lipschitz() is None
    assert Problem(f=f, g=g).lipschitz() == f.lipschitz() + g.lipschitz()


def test_stop_rule_receives_the_measured_value():
    problem = quadratic_problem(seed=9)
    measured, received = {}, {}

    def measure(state):
        measured[state.k] = 1.0 / (1 + state.k)
        return measured[state.k]

    def stop(state, value):
        received[state.k] = value
        return value <= 0.1

    _, trace = run("dy", problem, StepConfig(lam=0.1), np.ones(3), stop=stop,
                   max_iters=100, measure=measure)
    assert trace.status == "converged" and trace.iterations == 9
    assert received == {k: measured[k] for k in range(1, 10)}
    np.testing.assert_array_equal(trace.objectives, [measured[k] for k in range(10)])


def test_divergence_records_the_measure_of_the_diverged_state():
    w = prox.Quadratic(np.array([[10.0]]))
    problem = Problem(g=prox.L1(1e-8), w=w)
    stops = []
    state, trace = run("tseng", problem, StepConfig(lam=0.3), np.array([1.0]),
                       stop=lambda state, value: stops.append(state.k) or False,
                       max_iters=2000, measure=lambda state: abs(float(state.x[0])))
    assert trace.status == "diverged"
    assert trace.objectives[-1] == abs(float(state.x[0])) > DIVERGENCE_NORM
    assert len(trace) == state.k + 1 and stops == list(range(1, state.k))


def test_method_problem_validation():
    quad = quadratic_problem(seed=10)
    with pytest.raises(ConfigurationError):
        run("dr", quad, StepConfig(lam=0.1), np.zeros(3))       # dr wants w absent
    with pytest.raises(ConfigurationError):
        run("fb", quad, StepConfig(lam=0.1), np.zeros(3))       # fb wants f absent
    with pytest.raises(ConfigurationError):
        run("nope", quad, StepConfig(lam=0.1), np.zeros(3))


def test_method_table_lasso_splits_pass_their_checks():
    # lasso_problem reads the absent-terms column of METHODS, so every
    # method, "dy" included, gets a split that its own check accepts; the
    # check hands back the step, which run and local_error_order then take
    inst = gen_lasso(12, 30, seed=5)
    for method, (step, _, _) in METHODS.items():
        problem = lasso_problem(inst, method)
        assert check_method(method, problem) is step
        assert (problem.f is None) == (method in ("fb", "tseng"))


def test_determinism_bit_identical_traces():
    inst = gen_lasso(30, 80, seed=2)
    problem = lasso_problem(inst, "dr")
    cfg = StepConfig(lam=0.1, schedule=DecayingDamping(3.0))
    s1, t1 = run("dr", problem, cfg, np.zeros(80), max_iters=300)
    s2, t2 = run("dr", problem, cfg, np.zeros(80), max_iters=300)
    # bit-identical iterates and algorithmic trace columns (wall time is
    # exempt: it is a clock, not part of the algorithm)
    np.testing.assert_array_equal(s1.x, s2.x)
    np.testing.assert_array_equal(t1.objectives, t2.objectives)
    np.testing.assert_array_equal(t1.residuals, t2.residuals)
    assert t1.status == t2.status


def test_every_method_with_none_schedule_matches_gamma_zero(rng):
    # schedule None and an explicit zero-momentum extrapolation agree bitwise
    problem = quadratic_problem(seed=12)
    cfg = StepConfig(lam=0.2)
    state = initial_state(rng.standard_normal(3))
    for step in (step_admm, step_davis_yin):
        new = step(state, problem, cfg)
        assert new.x_hat is new.x              # extrapolate returned x itself


# ---------------------------------------------------------------------------
# residuals and prox outputs owned by the steps


def _method_problem(method):
    """The quadratic triple, less the terms ``method`` needs absent."""
    p = quadratic_problem(seed=7)
    _, _, absent = METHODS[method]
    return Problem(f=None if "f" in absent else p.f, g=p.g, w=None if "w" in absent else p.w)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("schedule", [NoDamping(), ConstantDamping(1.0)],
                         ids=["plain", "momentum"])
def test_trace_residuals_match_the_per_method_formula(method, schedule):
    # bit for bit the formula the run loop used to apply from outside the
    # step: ADMM ||x+ - x_half|| + ||x+ - x||, the others ||x+ - xhat||
    problem = _method_problem(method)
    states = []
    _, trace = run(method, problem, StepConfig(lam=0.3, schedule=schedule),
                   np.array([1.2, -0.7, 0.4]), max_iters=25,
                   measure=lambda state: states.append(state) or 0.0)
    expected = [math.nan]
    for prev, new in zip(states, states[1:]):
        if method == "admm":
            expected.append(space.norm(new.x - new.last_half) + space.norm(new.x - prev.x))
        else:
            expected.append(space.norm(new.x - prev.x_hat))
    np.testing.assert_array_equal(trace.residuals, expected)
    np.testing.assert_array_equal(trace.residuals[1:], [st.residual for st in states[1:]])
    assert math.isnan(states[0].residual)


def test_davis_yin_last_half_is_prox_f_of_xhat(rng):
    problem = quadratic_problem(seed=7)
    lam = 0.3
    for _ in range(20):
        x, x_prev = rng.standard_normal(3), rng.standard_normal(3)
        state = SolverState(x=x, x_prev=x_prev, x_hat=x + 0.4 * (x - x_prev),
                            c=np.zeros(3), k=3)
        new = step_davis_yin(state, problem, StepConfig(lam=lam))
        np.testing.assert_array_equal(new.last_half, problem.f.prox(state.x_hat, lam))


# ---------------------------------------------------------------------------
# stop_on_estimate_change


def _at(k, estimate):
    x = np.asarray(estimate, dtype=float)
    return SolverState(x=x, x_prev=x, x_hat=x, c=np.zeros_like(x), k=k, estimate=x)


def test_estimate_change_rule_fresh():
    rule = stop_on_estimate_change(1e-10)
    assert not rule(_at(1, [1.0, 2.0]), math.nan)          # nothing to compare yet
    assert not rule(_at(2, [1.0, 2.1]), math.nan)          # moved
    assert rule(_at(3, [1.0, 2.1 + 1e-12]), math.nan)      # relative move below tol


def test_estimate_change_rule_zero_denominator_is_absolute():
    rule = stop_on_estimate_change(1e-10)
    assert not rule(_at(1, [0.0, 0.0]), math.nan)
    assert rule(_at(2, [1e-11, 0.0]), math.nan)            # |delta| <= tol from zero
    rule = stop_on_estimate_change(1e-10)
    rule(_at(1, [0.0, 0.0]), math.nan)
    assert not rule(_at(2, [1e-9, 0.0]), math.nan)


def test_estimate_change_rule_reused_across_runs():
    # a rule that has seen a run forgets it at the next run's first step:
    # a warm-started run stops exactly where it does with a fresh rule
    # (forward-backward's estimate is its iterate, so the warm start sits
    # within tol of the last estimate the rule saw)
    problem = _method_problem("fb")
    cfg = StepConfig(lam=0.3)
    shared = stop_on_estimate_change(1e-10)
    first, _ = run("fb", problem, cfg, np.array([1.2, -0.7, 0.4]), stop=shared,
                   max_iters=10_000)
    _, reused = run("fb", problem, cfg, first.estimate, stop=shared, max_iters=10_000)
    _, fresh = run("fb", problem, cfg, first.estimate, stop=stop_on_estimate_change(1e-10),
                   max_iters=10_000)
    assert reused.iterations == fresh.iterations >= 2
    np.testing.assert_array_equal(reused.residuals, fresh.residuals)


# ---------------------------------------------------------------------------
# what the balance coefficient buys, and where each step stays stable


def test_balanced_admm_keeps_the_steady_state_the_unbalanced_composition_misses():
    # Speth, Green, MacNamara & Strang (SIAM J. Numer. Anal. 2013): the
    # rebalanced splitting keeps the flow's steady state at every lam,
    # while the plain composition prox_g o prox_f is biased by O(lam)
    f, g, _ = cli._quadratic_triple()
    x_star = -np.linalg.solve(f.P + g.P, f.q + g.q)
    lams = [0.4, 0.2, 0.1, 0.05, 0.025]
    slope_band, balanced_tol = (0.9, 1.1), 1e-10
    biases = []
    for lam in lams:
        state, trace = run("admm", Problem(f=f, g=g), StepConfig(lam=lam),
                           np.ones(2), stop=stop_on_residual(1e-14), max_iters=100_000)
        assert trace.status == CONVERGED
        assert space.norm(state.x - x_star) <= balanced_tol, lam
        x, prev = np.ones(2), None
        while prev is None or space.norm(x - prev) > 1e-15:
            x, prev = g.prox(f.prox(x, lam), lam), x
        biases.append(space.norm(x - x_star))
    slope = np.polyfit(np.log(lams), np.log(biases), 1)[0]
    assert slope_band[0] <= slope <= slope_band[1], (slope, biases)


# a 1-D linear step with multiplier mu and momentum gamma has the
# characteristic polynomial z^2 - (1 + gamma)*mu*z + gamma*mu (Polyak 1964)
STABILITY_MARGIN = 0.05          # runs at (1 -/+ margin) x the threshold
STABILITY_RANGE = (0.05, 4.0)    # the lam*L searched for a threshold
STABILITY_ITERS = 20_000
_TINY = 1e-12                    # curvature of a "zero" quadratic term


def _stability_problem(method):
    # w = x^2/2 (L = 1) and near-zero f, g, where each method takes them;
    # dr has no w, so x^2/2 is its f
    half, tiny = prox.Quadratic(np.eye(1)), prox.Quadratic(np.array([[_TINY]]))
    return {"admm": Problem(f=tiny, g=tiny, w=half), "dy": Problem(f=tiny, g=tiny, w=half),
            "dr": Problem(f=half, g=tiny), "fb": Problem(g=tiny, w=half),
            "tseng": Problem(g=tiny, w=half)}[method]


def _worst_gamma(schedule, a):
    # every schedule's gamma_k is nondecreasing in k, so the run's last
    # step has the largest; with L = 1, lam = a
    return schedule.gamma(STABILITY_ITERS, StepConfig(lam=a, schedule=schedule).h)


def _companion(method, a, gamma):
    # the linear step on (x_k, x_{k-1}[, c_k]), with xhat = (1+gamma)x - gamma*x_prev
    s = 1.0 / (1.0 + a * _TINY)                  # the prox of a "zero" term
    if method == "dr":
        xh = np.array([1.0 + gamma, -gamma])
        q = xh / (1.0 + a)                       # prox_f of x^2/2
        return np.array([xh + s * (2.0 * q - xh) - q, [1.0, 0.0]])
    xh = np.array([1.0 + gamma, -gamma, 0.0])
    half = s * ((1.0 - a) * xh + [0.0, 0.0, a])
    nxt = s * (half - [0.0, 0.0, a])
    return np.array([nxt, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0] + (nxt - half) / a])


def _stable(method, schedule, a):
    gamma = _worst_gamma(schedule, a)
    if method in ("fb", "dy"):           # mu = 1 - a
        return a < 2.0 * (1.0 + gamma) / (1.0 + 2.0 * gamma)
    if method == "tseng":                # mu = 1 - a + a^2 > 0
        return a < 1.0
    return max(abs(np.linalg.eigvals(_companion(method, a, gamma)))) < 1.0


def _threshold(method, schedule):
    """The lam*L where the step turns unstable, or None if it stays stable
    over ``STABILITY_RANGE``; the stable set must be an interval from its
    bottom."""
    grid = np.linspace(*STABILITY_RANGE, 400)
    stable = [_stable(method, schedule, a) for a in grid]
    assert stable[0] and stable == sorted(stable, reverse=True), (method, schedule)
    if stable[-1]:
        return None
    first_unstable = stable.index(False)
    lo, hi = grid[first_unstable - 1], grid[first_unstable]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _stable(method, schedule, mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("schedule", [NoDamping(), DecayingDamping(), ConstantDamping(0.1)],
                         ids=["none", "decaying", "constant"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_stability_threshold_of_every_method_and_damping(method, schedule):
    problem = _stability_problem(method)
    threshold = _threshold(method, schedule)
    runs = ([(STABILITY_RANGE[1], CONVERGED)] if threshold is None else
            [((1 - STABILITY_MARGIN) * threshold, CONVERGED),
             ((1 + STABILITY_MARGIN) * threshold, DIVERGED)])
    for a, status in runs:
        _, trace = run(method, problem, StepConfig(lam=a, schedule=schedule), np.ones(1),
                       stop=stop_on_residual(1e-12), max_iters=STABILITY_ITERS)
        assert trace.status == status, (a, threshold, trace.iterations)
