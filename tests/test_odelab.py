import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import quadratic_problem, quadratic_triple
from proxflow import odelab, prox
from proxflow.cli import _quad_problem_for
from proxflow.damping import ConstantDamping, DecayingDamping, NoDamping, extrapolate, gamma
from proxflow.errors import NumericalError, ParameterError, ShapeMismatchError
from proxflow.odelab import (
    AcceleratedFlow,
    GradientFlow,
    continuous_rate_check,
    local_error_order,
    rate_cases,
    reference_trajectory,
)
from proxflow.solvers import METHODS, Problem, SolverState, StepConfig, check_method
from proxflow.space import norm


def test_reference_integrator_is_at_least_fourth_order():
    # global error of RK4 on xdot = -x against exp(-T), over halving steps
    T = 2.0
    steps_list = (32, 64, 128, 256)
    decay = prox.Quadratic(np.array([[1.0]]))
    errs = [abs(reference_trajectory(GradientFlow(decay), np.array([1.0]), T=T,
                                     steps=steps).xs[-1][0] - math.exp(-T))
            for steps in steps_list]
    slope = np.polyfit(np.log([T / s for s in steps_list]), np.log(errs), 1)[0]
    assert slope >= 3.9


def test_gradient_flow_zero_field_constant(rng):
    zero = prox.FunctionOracle(value=lambda x: 0.0, grad=np.zeros_like)
    x0 = rng.standard_normal(3)
    traj = reference_trajectory(GradientFlow(zero), x0, T=2.0, steps=50)
    np.testing.assert_array_equal(traj.xs[-1], x0)


def test_gradient_flow_scalar_decay():
    quad = prox.Quadratic(np.array([[1.0]]))
    traj = reference_trajectory(GradientFlow(quad), np.array([1.0]), T=1.0, steps=200)
    assert traj.xs[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_accelerated_flow_critically_damped_closed_form():
    # xddot + 2 xdot + x = 0 from (x0, v0): x(t) = (x0 + (v0+x0) t) e^{-t}
    quad = prox.Quadratic(np.array([[1.0]]))
    flow = AcceleratedFlow(quad, ConstantDamping(2.0))
    x0, v0 = 1.0, 0.5
    traj = reference_trajectory(flow, np.array([x0]), np.array([v0]), T=3.0, steps=600)
    expected = (x0 + (v0 + x0) * traj.ts) * np.exp(-traj.ts)
    np.testing.assert_allclose(traj.xs[:, 0], expected, atol=1e-8)


def test_accelerated_flow_velocity_decay_zero_field():
    zero = prox.FunctionOracle(value=lambda x: 0.0, grad=np.zeros_like)
    flow = AcceleratedFlow(zero, ConstantDamping(1.5))
    traj = reference_trajectory(flow, np.zeros(1), np.array([1.0]), T=2.0, steps=400)
    np.testing.assert_allclose(traj.vs[:, 0], np.exp(-1.5 * traj.ts), atol=1e-9)


def test_reference_trajectory_preconditions():
    quad = prox.Quadratic(np.array([[1.0]]))
    with pytest.raises(ParameterError):
        reference_trajectory(GradientFlow(quad), np.ones(1), steps=0)
    flow = AcceleratedFlow(quad, DecayingDamping(3.0))
    with pytest.raises(ParameterError):
        reference_trajectory(flow, np.ones(1), np.ones(1), t0=0.0, T=1.0)
    with pytest.raises(ParameterError):
        reference_trajectory(flow, np.ones(1), None, t0=1.0, T=2.0)
    with pytest.raises(ShapeMismatchError):
        reference_trajectory(AcceleratedFlow(quad, ConstantDamping(1.0)), np.ones(1), np.ones(2))


def _textbook_rk4(flow, x0, v0=None, t0=0.0, T=1.0, steps=100):
    """Classical RK4 with a fresh array per stage, run to T with no checks."""
    grad = flow.grad.grad
    dt = (T - t0) / steps
    ts = t0 + dt * np.arange(steps + 1)
    if flow.schedule.accelerated:
        def deriv(t, y):
            return np.stack([y[1], -flow.eta(t) * y[1] - grad(y[0])])
        y = np.stack([x0, v0]).astype(float)
    else:
        def deriv(t, y):
            return -grad(y)
        y = np.array(x0, dtype=float)
    ys = [y]
    with np.errstate(all="ignore"):
        for t in ts[:-1]:
            k1 = deriv(t, y)
            k2 = deriv(t + dt / 2, y + (dt / 2) * k1)
            k3 = deriv(t + dt / 2, y + (dt / 2) * k2)
            k4 = deriv(t + dt, y + dt * k3)
            y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            ys.append(y)
    return ts, np.array(ys)


_QUARTIC = prox.FunctionOracle(value=lambda x: 0.25 * float(np.sum(x ** 4)),
                              grad=lambda x: x ** 3)


@pytest.mark.parametrize("flow, x0, v0, t0, T", [
    (GradientFlow(prox.Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2]))),
     np.array([1.0, -2.0]), None, 0.0, 3.0),
    (AcceleratedFlow(_QUARTIC, DecayingDamping(3.0)), np.array([1.5]), np.zeros(1), 1.0, 40.0),
    (AcceleratedFlow(prox.Quadratic(np.diag([4.0, 0.5])), ConstantDamping(1.5)),
     np.array([1.0, 2.0]), np.array([0.5, -1.0]), 0.0, 10.0),
    # one entry: Python floats through a FunctionOracle, arrays through a Quadratic
    (GradientFlow(_QUARTIC), np.array([1.5]), None, 1.0, 40.0),
    (AcceleratedFlow(prox.Quadratic(np.array([[4.0]])), ConstantDamping(4.0)),
     np.array([1.0]), np.array([0.5]), 0.0, 10.0),
], ids=["gradient-quadratic-2d", "decaying-quartic", "constant-quadratic",
        "gradient-quartic", "constant-quadratic-1x1"])
def test_reference_trajectory_matches_textbook_rk4_bitwise(flow, x0, v0, t0, T):
    traj = reference_trajectory(flow, x0, v0, t0=t0, T=T, steps=2000)
    ts, ys = _textbook_rk4(flow, x0, v0, t0=t0, T=T, steps=2000)
    assert np.array_equal(traj.ts, ts)
    if flow.schedule.accelerated:
        assert np.array_equal(traj.xs, ys[:, 0])
        assert np.array_equal(traj.vs, ys[:, 1])
    else:
        assert np.array_equal(traj.xs, ys)
        assert traj.vs is None


# xdot = x^3 from x0 = 1 leaves float range just after t = 1/2; the
# inertial xddot + xdot = x^3 from (1, 1) does so too, near t = 1.5.  On one
# entry the step runs on Python floats, whose ** raises OverflowError where
# numpy gives inf; on two it runs on arrays.
_BLOW_UP = prox.FunctionOracle(value=lambda x: -0.25 * float(np.sum(x ** 4)),
                               grad=lambda x: -x ** 3)


@pytest.mark.parametrize("flow, x0, v0, T", [
    (GradientFlow(_BLOW_UP), np.ones(1), None, 1.0),
    (AcceleratedFlow(_BLOW_UP, ConstantDamping(1.0)), np.ones(1), np.ones(1), 5.0),
    (GradientFlow(_BLOW_UP), np.ones(2), None, 1.0),
], ids=["first-order", "second-order", "first-order-array"])
def test_reference_trajectory_blow_up_names_first_nonfinite_step(flow, x0, v0, T):
    ts, ys = _textbook_rk4(flow, x0, v0, T=T, steps=1000)
    first = int(np.argmin(np.isfinite(ys).reshape(len(ts), -1).all(axis=1)))
    assert first > 0
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as exc:
        reference_trajectory(flow, x0, v0, T=T, steps=1000)
    assert re.search(r"t=(\S+)", str(exc.value)).group(1) == f"{ts[first]:g}"


class _CountingOracle:
    def __init__(self):
        self.calls = 0

    def grad(self, x):
        self.calls += 1
        return x

    def value(self, x):
        return 0.5 * float(x @ x)


@pytest.mark.parametrize("bad, error", [
    (dict(kind="exponental"), ParameterError),
    (dict(kind="power", window=(0.5, 0.5)), ParameterError),
    (dict(kind="power", window=(0.8, 0.2)), ParameterError),
    (dict(window=(-0.1, 1.0)), ParameterError),
    (dict(window=(0.5, 1.1)), ParameterError),
    # the range check reads only the first two entries
    (dict(window=(0.5, 0.7, 0.9)), ParameterError),
    (dict(window=(0.5,)), ParameterError),
    # x0 has shape (2,): numpy would broadcast the last two
    (dict(x_star=np.zeros(3)), ShapeMismatchError),
    (dict(x_star=np.zeros(1)), ShapeMismatchError),
    (dict(x_star=np.zeros((2, 1))), ShapeMismatchError),
    (dict(x_star=np.array([0.0, math.nan])), ValueError),
    (dict(kind="power", F_star=math.nan), ParameterError),
    (dict(F_star=-math.inf), ParameterError),
], ids=["exponental-window0", "power-window1", "power-window2", "exponential-window3",
        "exponential-window4", "window-three-entries", "window-one-entry", "x_star-longer",
        "x_star-one-entry", "x_star-column", "x_star-nan", "F_star-nan", "F_star-inf"])
def test_rate_check_rejects_bad_arguments_before_integrating(bad, error):
    oracle = _CountingOracle()
    args = dict(dict(x_star=np.zeros(2), F_star=0.0, kind="exponential", window=(0.5, 1.0)),
                **bad)
    with pytest.raises(error):
        continuous_rate_check(GradientFlow(oracle), oracle, T=2.0, x0=np.ones(2), t0=1.0,
                              steps=1000, **args)
    assert oracle.calls == 0


@pytest.mark.parametrize("steps", [10.5, 0.5, 0, math.inf, math.nan])
def test_a_steps_that_is_not_a_whole_number_is_refused_before_integrating(steps):
    # a fractional count gives a grid whose last point lies past T
    oracle = _CountingOracle()
    with pytest.raises(ParameterError, match="^steps must be a whole number >= 1"):
        reference_trajectory(GradientFlow(oracle), np.ones(2), T=1.0, steps=steps)
    with pytest.raises(ParameterError, match="^steps must be a whole number >= 1"):
        continuous_rate_check(GradientFlow(oracle), oracle, np.zeros(2), 0.0, 1.0,
                              x0=np.ones(2), steps=steps)
    assert oracle.calls == 0


@pytest.mark.parametrize("steps", [10, np.int64(10)], ids=["int", "np.int64"])
def test_integer_steps_span_exactly_the_horizon(steps):
    flow = GradientFlow(prox.Quadratic(np.eye(1)))
    traj = reference_trajectory(flow, [1.0], T=1.0, steps=steps)
    assert len(traj.ts) == 11 and traj.ts[-1] == 1.0
    fit = continuous_rate_check(flow, flow.grad, np.zeros(1), 0.0, 1.0, x0=[1.0],
                                steps=steps, window=(0.0, 1.0))
    assert fit.exponent == pytest.approx(1.0, rel=1e-6)


def _two_pass_fit(flow, objective, x_star, F_star, T, *, x0, v0=None, t0=0.0, steps,
                  kind, window=(0.5, 1.0)):
    """The rate fit over a stored trajectory: every sample, then masks."""
    traj = reference_trajectory(flow, x0, v0, t0=t0, T=T, steps=steps)
    ts = traj.ts
    data = np.array([norm(x - x_star) if kind == "exponential" else objective.value(x) - F_star
                     for x in traj.xs])
    lo, hi = (t0 + w * (T - t0) for w in window)
    mask = (ts >= lo) & (ts <= hi)
    if kind == "exponential":
        mask &= data > 0
        x = ts[mask]
    else:
        data = np.maximum.accumulate(np.maximum(data, 0.0)[::-1])[::-1]
        mask &= (data > 0) & (ts > 0)
        x = np.log(ts[mask])
    slope, _, r2 = odelab._line_fit(x, np.log(data[mask]))
    return (-slope if kind == "exponential" else slope), r2


class _Recording:
    """An objective that records every value it returns."""

    def __init__(self, oracle):
        self.oracle, self.values = oracle, []

    def value(self, x):
        self.values.append(self.oracle.value(x))
        return self.values[-1]


def _rate_case(name, **overrides):
    case = rate_cases()[name]
    return case.flow, dict(case.config, **overrides)


_UNIT_DECAY = GradientFlow(prox.Quadratic(np.array([[1.0]])))


@pytest.mark.parametrize("flow, config", [
    _rate_case("gradient-flow-strongly-convex"),                # arrays of two entries
    _rate_case("accelerated-constant-strongly-convex"),         # arrays of one entry
    _rate_case("accelerated-decaying-convex", steps=20_000),    # Python floats
    # from x0 = 1e-155, x = x0 exp(-t) squares to 0 from about t = 15 on, so
    # the distance and F = x^2/2 reach exactly 0: only the positive samples
    # are fitted, and a power fit from t0 = 0 skips log 0
    (_UNIT_DECAY, dict(x_star=np.zeros(1), F_star=0.0, T=30.0, x0=np.array([1e-155]),
                       steps=300, kind="exponential", window=(0.0, 1.0))),
    (_UNIT_DECAY, dict(x_star=np.zeros(1), F_star=0.0, T=30.0, x0=np.array([1e-155]),
                       steps=300, kind="power", window=(0.0, 1.0))),
], ids=["two-entry-arrays", "one-entry-arrays", "floats", "zero-distance", "zero-gap-from-t0"])
def test_streamed_rate_fit_matches_two_pass_fit_bitwise(flow, config):
    # F is evaluated on rows of the stored trajectory's shape: on Python
    # floats, x**4 differs in the last bit for a few percent of the samples
    # (which the log fit mostly rounds away, so the values are compared too)
    streamed, stored = _Recording(flow.grad), _Recording(flow.grad)
    fit = continuous_rate_check(flow, streamed, **config)
    assert (fit.exponent, fit.r_squared) == _two_pass_fit(flow, stored, **config)
    assert streamed.values == stored.values


@pytest.mark.parametrize("flow, cfg", [
    (AcceleratedFlow(prox.Quadratic(np.array([[4.0]])), ConstantDamping(4.0)),
     dict(T=10.0, kind="exponential")),
    (AcceleratedFlow(_QUARTIC, DecayingDamping(3.0)),
     dict(T=50.0, t0=1.0, kind="power", window=(0.03, 1.0))),
], ids=["exponential", "power"])
def test_rate_check_peak_memory(flow, cfg):
    # the time grid and one float per sample, with room to spare: no stored
    # trajectory, no per-sample Python objects and no fitting temporaries
    steps = 20_000
    args = (flow, flow.grad, np.zeros(1), 0.0)
    kwargs = dict(cfg, x0=np.array([1.5]), v0=np.zeros(1))
    continuous_rate_check(*args, steps=100, **kwargs)    # warm-up
    tracemalloc.start()
    try:
        continuous_rate_check(*args, steps=steps, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * (steps + 1)


H_GRID = np.logspace(-3, -1, 8)


@pytest.mark.parametrize("method", ["admm", "dy", "tseng"])
@pytest.mark.parametrize("schedule", [DecayingDamping(3.0), ConstantDamping(1.0)],
                         ids=["decaying", "constant"])
def test_local_error_order_accelerated(method, schedule):
    problem = quadratic_problem(seed=7)
    if method == "tseng":
        problem = Problem(g=problem.g, w=problem.w)
    fit = local_error_order(method, problem, schedule, H_GRID, x0=np.array([1.2, -0.7, 0.4]))
    assert 1.8 <= fit.slope <= 2.2
    assert fit.r_squared > 0.99


@pytest.mark.parametrize("method", ["admm", "dy", "tseng"])
@pytest.mark.parametrize("schedule", [NoDamping(), DecayingDamping(3.0), ConstantDamping(1.0)],
                         ids=["none", "decaying", "constant"])
def test_local_error_order_steps_from_the_hand_matched_state_bit_for_bit(method, schedule):
    # criterion 1's measurement, with the matched state written out by hand:
    # x_{k0-1} = x0 - h*v0 and xhat = x0 + gamma_{k0}*(x0 - x_{k0-1}) in
    # accelerated mode, every point x0 and k0 = 1 in plain mode
    problem = quadratic_problem(seed=7)
    if method == "tseng":
        problem = Problem(g=problem.g, w=problem.w)
    x0 = np.array([1.2, -0.7, 0.4])
    fit = local_error_order(method, problem, schedule, H_GRID, x0=x0, t0=1.0)
    step = check_method(method, problem)
    v0 = np.cos(1.0 + np.arange(x0.size))
    c = -problem.g.grad(x0)
    expected = []
    for h in fit.hs.tolist():
        if schedule.accelerated:
            k0 = max(1, round(1.0 / h))
            x_prev = x0 - h * v0
            x_hat = extrapolate(x0, x_prev, gamma(schedule, k0, h))
            flow, t_start, v = AcceleratedFlow(problem, schedule), k0 * h, v0
            cfg = StepConfig(lam=h * h, schedule=schedule)
        else:
            k0, x_prev, x_hat = 1, x0, x0
            flow, t_start, v, cfg = GradientFlow(problem), 0.0, None, StepConfig(lam=h)
        state = SolverState(x=x0, x_prev=x_prev, x_hat=x_hat, c=c, k=k0, estimate=x0)
        ref = reference_trajectory(flow, x0, v, t0=t_start, T=t_start + h,
                                   steps=odelab.RK_SUBSTEPS)
        expected.append(norm(step(state, problem, cfg).x - ref.xs[-1]))
    assert fit.errors.tolist() == expected


def test_local_error_order_combined_damping():
    from proxflow.damping import CombinedDamping

    problem = quadratic_problem(seed=7)
    fit = local_error_order("dy", problem, CombinedDamping(2.0, 0.4), H_GRID,
                            x0=np.array([1.2, -0.7, 0.4]))
    assert 1.8 <= fit.slope <= 2.2


@pytest.mark.parametrize("method", ["admm", "fb"])
def test_local_error_order_plain(method):
    problem = quadratic_problem(seed=7)
    if method == "fb":
        problem = Problem(g=problem.g, w=problem.w)
    fit = local_error_order(method, problem, NoDamping(), H_GRID,
                            x0=np.array([1.2, -0.7, 0.4]))
    assert 1.8 <= fit.slope <= 2.2


def test_local_error_order_translation_invariant():
    # replacing every term value(x) by value(x - a) shifts the whole
    # measurement rigidly and leaves the fitted order unchanged
    f, g, w = quadratic_triple(seed=7)
    problem = quadratic_problem(seed=7)
    a = np.array([0.4, -1.1, 0.6])

    def shift(term):
        return prox.Quadratic(term.P, term.q - term.P @ a)

    shifted = Problem(f=shift(f), g=shift(g), w=shift(w))
    x0 = np.array([1.2, -0.7, 0.4])
    fit = local_error_order("dy", problem, ConstantDamping(1.0), H_GRID, x0=x0)
    fit_shifted = local_error_order("dy", shifted, ConstantDamping(1.0), H_GRID, x0=x0 + a)
    np.testing.assert_allclose(fit_shifted.errors, fit.errors, rtol=1e-6, atol=1e-14)
    assert fit_shifted.slope == pytest.approx(fit.slope, abs=1e-4)


def test_local_error_order_oracle_resolution_insensitive(monkeypatch):
    # halving the RK substep changes the measured errors by under 1%
    problem = quadratic_problem(seed=7)
    x0 = np.array([1.2, -0.7, 0.4])
    fit1 = local_error_order("dy", problem, ConstantDamping(1.0), H_GRID, x0=x0)
    monkeypatch.setattr(odelab, "RK_SUBSTEPS", 2 * odelab.RK_SUBSTEPS)
    fit2 = local_error_order("dy", problem, ConstantDamping(1.0), H_GRID, x0=x0)
    np.testing.assert_allclose(fit2.errors, fit1.errors, rtol=1e-2)


def test_local_error_order_refuses_zero_momentum_before_any_rk_work(monkeypatch):
    # r2*h = 15 * 0.1 > 1 only at the largest h; no smaller step is measured first
    work = []
    monkeypatch.setattr(odelab, "reference_trajectory", lambda *args, **kw: work.append(args))
    with pytest.raises(ParameterError, match=r"r2\*h = 1.5 > 1"):
        local_error_order("dy", quadratic_problem(seed=7), ConstantDamping(15.0), H_GRID,
                          x0=np.array([1.2, -0.7, 0.4]))
    assert not work


def test_local_error_order_degenerate_grid_rejected():
    problem = quadratic_problem(seed=7)
    non_finite = r"every step must be finite, got \[.*\]"
    for hs, reason in (([], "an order fit needs at least 3 points, got 0"),
                       ([1e-3, 2e-3], "an order fit needs at least 3 points, got 2"),
                       ([1e-2, 1e-3, 5e-3], "an order fit needs steps spanning at least "
                                            "1.5 decades, got 0.001 to 0.01"),
                       # the Lipschitz filter h <= 0.1/sqrt(L) would drop them quietly
                       ([1e-3, math.nan, 3e-3, 1e-2, 1e-1], non_finite),
                       ([1e-3, 1e-2, 1e-1, math.inf], non_finite),
                       ([math.nan, 1e-3, 1e-2, 1e-1], non_finite)):
        with pytest.raises(ParameterError, match=f"^h_values: {reason}$"):
            local_error_order("dy", problem, NoDamping(), hs, x0=np.zeros(3))


def test_local_error_order_refuses_a_term_without_gradient_before_any_rk_work(monkeypatch):
    work = []
    monkeypatch.setattr(odelab, "reference_trajectory", lambda *args, **kw: work.append(args))
    _, g, w = quadratic_triple(seed=7)
    with pytest.raises(ParameterError, match="term L1 has no gradient"):
        local_error_order("dy", Problem(f=prox.L1(1.0), g=g, w=w), NoDamping(), H_GRID,
                          x0=np.zeros(3))
    assert not work


# Global error after N = 1/h steps over a horizon of length 1: O(h) for a
# first-order integrator, so a log-log slope near 1 (the one-step error
# that order-check fits is O(h^2)).  Band and r^2 floor fixed before any run.
GLOBAL_H_GRID = (1 / 20, 1 / 40, 1 / 80, 1 / 160, 1 / 320)
GLOBAL_SLOPE_BAND = (0.9, 1.1)
GLOBAL_REFERENCE_STEPS = 1280


def test_global_error_order_of_every_method_and_damping():
    x0 = np.array([1.0, -1.0])
    schedules = {"none": NoDamping(), "decaying": DecayingDamping(3.0),
                 "constant": ConstantDamping(1.0)}
    fits = {}
    for method in METHODS:
        problem = _quad_problem_for(method)
        step = check_method(method, problem)
        for name, schedule in schedules.items():
            # local_error_order's matched start; the accelerated flows start
            # at t0 = k0*h = 1 on this grid, as local_error_order aligns them
            flow, v0, starts = odelab._matched_starts(problem, schedule, x0, GLOBAL_H_GRID,
                                                      t0=1.0)
            t0 = starts[0][2]
            x_end = reference_trajectory(flow, x0, v0, t0=t0, T=t0 + 1.0,
                                         steps=GLOBAL_REFERENCE_STEPS).xs[-1]
            errors = []
            for h, (cfg, state, _) in zip(GLOBAL_H_GRID, starts):
                for _ in range(round(1.0 / h)):
                    state = step(state, problem, cfg)
                errors.append(norm(state.x - x_end))
            fits[method, name] = odelab._line_fit(np.log10(GLOBAL_H_GRID), np.log10(errors))
    lo, hi = GLOBAL_SLOPE_BAND
    outside = {pair: fit for pair, fit in fits.items()
               if not (lo <= fit[0] <= hi and fit[2] >= 0.99)}
    assert len(fits) == 15 and not outside, outside


def test_slope_band_matches_the_benchmark_copy(benchmark_workloads):
    assert benchmark_workloads.SLOPE_BAND == odelab.SLOPE_BAND


# each case's band edges: criterion 5's 15% and 25% intervals and its -1.7 cap
BAND_EDGES = {"gradient-flow-strongly-convex": (0.85, 1.15),
              "accelerated-decaying-convex": (-1.7,),
              "accelerated-constant-strongly-convex": (1.5, 2.5)}


def test_rate_bands_match_the_benchmark_copy(benchmark_workloads):
    # an interval and criterion 5's arithmetic part at the edges: in floats,
    # abs(0.85 - 1.0) > 0.15
    cases = rate_cases()
    assert set(benchmark_workloads.RATE_BANDS) == set(cases) == set(BAND_EDGES)
    for name, case in cases.items():
        for edge in BAND_EDGES[name]:
            for fit in (np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf)):
                assert benchmark_workloads.RATE_BANDS[name](case.predicted, fit) \
                    == case.in_band(fit), (name, fit)
    gradient_flow = cases["gradient-flow-strongly-convex"]
    assert gradient_flow.in_band(1.0) and not gradient_flow.in_band(0.85)


def test_rk4_step_counts_match_the_benchmark_copies(benchmark_workloads):
    assert benchmark_workloads.RATES_RK4_STEPS == sum(
        case.config["steps"] for case in rate_cases().values())
    assert benchmark_workloads.ORDER_STEPS_PER_POINT == odelab.RK_SUBSTEPS + 1


@pytest.mark.parametrize("name", list(rate_cases()))
def test_rate_case_in_band(name):
    case = rate_cases()[name]
    assert case.in_band(case.fit().exponent)


def test_rate_gradient_flow_convex_power():
    # descent flow on the quartic decays at least as fast as 1/t
    quartic = prox.FunctionOracle(value=lambda x: 0.25 * float(np.sum(x ** 4)),
                                  grad=lambda x: x ** 3)
    fit = continuous_rate_check(GradientFlow(quartic), quartic, np.zeros(1), 0.0,
                                T=200.0, x0=np.array([1.5]), t0=1.0, steps=20_000,
                                kind="power", window=(0.05, 1.0))
    assert fit.exponent <= -0.9
