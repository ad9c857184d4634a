import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import centered_quadratic_problem, quadratic_problem
from proxflow import prox, space
from proxflow.damping import CombinedDamping, ConstantDamping, DecayingDamping, NoDamping
from proxflow.errors import ConfigurationError, ParameterError
from proxflow.experiments import gen_lasso, lasso_problem
from proxflow.solvers import (
    DIVERGENCE_NORM,
    METHODS,
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


def test_davis_yin_reduces_to_douglas_rachford(rng):
    inst = gen_lasso(12, 30, seed=6)
    problem = lasso_problem(inst, "dr")      # f = least squares, g = l1, w absent
    lam = 0.4
    cfg = StepConfig(lam=lam)
    for _ in range(100):
        state = random_state(rng, 30)
        new = step_davis_yin(state, problem, cfg)
        x = state.x_hat
        jf = problem.f.prox(x, lam)
        reflected = problem.g.prox(2.0 * jf - x, lam)
        expected = x + reflected - jf
        assert space.norm(new.x - expected) <= 1e-12


def test_davis_yin_reduces_to_proximal_gradient(rng):
    inst = gen_lasso(12, 30, seed=7)
    problem = lasso_problem(inst, "fb")      # f absent, g = l1, w = least squares
    lam = 0.1
    cfg = StepConfig(lam=lam)
    for _ in range(100):
        state = random_state(rng, 30)
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
    _, trace = run("dy", no_value, StepConfig(lam=0.1), np.ones(3), max_iters=3)
    assert np.all(np.isnan(trace.objectives))


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
    # method, "dy" included, gets a split that its own check accepts
    inst = gen_lasso(12, 30, seed=5)
    for method in METHODS:
        problem = lasso_problem(inst, method)
        check_method(method, problem)
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
