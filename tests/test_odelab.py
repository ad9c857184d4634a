import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import quadratic_problem, quadratic_triple
from proxflow import odelab, prox
from proxflow.damping import ConstantDamping, DecayingDamping, NoDamping
from proxflow.errors import NumericalError, ParameterError
from proxflow.odelab import (
    AcceleratedFlow,
    GradientFlow,
    continuous_rate_check,
    local_error_order,
    rate_cases,
    reference_trajectory,
    run_rate_case,
)
from proxflow.solvers import Problem


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


def _textbook_rk4(flow, x0, v0=None, t0=0.0, T=1.0, steps=100):
    """Classical RK4 with a fresh array per stage, run to T with no checks."""
    grad = flow.grad.grad
    dt = (T - t0) / steps
    ts = t0 + dt * np.arange(steps + 1)
    if flow.second_order:
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
], ids=["gradient-quadratic-2d", "decaying-quartic", "constant-quadratic"])
def test_reference_trajectory_matches_textbook_rk4_bitwise(flow, x0, v0, t0, T):
    traj = reference_trajectory(flow, x0, v0, t0=t0, T=T, steps=2000)
    ts, ys = _textbook_rk4(flow, x0, v0, t0=t0, T=T, steps=2000)
    assert np.array_equal(traj.ts, ts)
    if flow.second_order:
        assert np.array_equal(traj.xs, ys[:, 0])
        assert np.array_equal(traj.vs, ys[:, 1])
    else:
        assert np.array_equal(traj.xs, ys)
        assert traj.vs is None


# xdot = x^3 from x0 = 1 leaves float range just after t = 1/2; the
# inertial xddot + xdot = x^3 from (1, 1) does so too, near t = 1.5
_BLOW_UP = prox.FunctionOracle(value=lambda x: -0.25 * float(np.sum(x ** 4)),
                               grad=lambda x: -x ** 3)


@pytest.mark.parametrize("flow, v0, T", [
    (GradientFlow(_BLOW_UP), None, 1.0),
    (AcceleratedFlow(_BLOW_UP, ConstantDamping(1.0)), np.ones(1), 5.0),
], ids=["first-order", "second-order"])
def test_reference_trajectory_blow_up_names_first_nonfinite_step(flow, v0, T):
    ts, ys = _textbook_rk4(flow, np.ones(1), v0, T=T, steps=1000)
    first = int(np.argmin(np.isfinite(ys).reshape(len(ts), -1).all(axis=1)))
    assert first > 0
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as exc:
        reference_trajectory(flow, np.ones(1), v0, T=T, steps=1000)
    assert re.search(r"t=(\S+)", str(exc.value)).group(1) == f"{ts[first]:g}"


class _CountingOracle:
    def __init__(self):
        self.calls = 0

    def grad(self, x):
        self.calls += 1
        return x

    def value(self, x):
        return 0.5 * float(x @ x)


@pytest.mark.parametrize("kind, window", [
    ("exponental", (0.5, 1.0)),
    ("power", (0.5, 0.5)),
    ("power", (0.8, 0.2)),
    ("exponential", (-0.1, 1.0)),
    ("exponential", (0.5, 1.1)),
])
def test_rate_check_rejects_bad_arguments_before_integrating(kind, window):
    oracle = _CountingOracle()
    with pytest.raises(ParameterError):
        continuous_rate_check(GradientFlow(oracle), oracle, np.zeros(1), 0.0, T=2.0,
                              x0=np.ones(1), t0=1.0, steps=1000, kind=kind, window=window)
    assert oracle.calls == 0


@pytest.mark.parametrize("flow, cfg", [
    (AcceleratedFlow(prox.Quadratic(np.array([[4.0]])), ConstantDamping(4.0)),
     dict(T=10.0, kind="exponential")),
    (AcceleratedFlow(_QUARTIC, DecayingDamping(3.0)),
     dict(T=50.0, t0=1.0, kind="power", window=(0.03, 1.0))),
], ids=["exponential", "power"])
def test_rate_check_peak_memory(flow, cfg):
    # the trajectory (ts, xs, vs) and one float per sample, with room to
    # spare: no per-sample Python objects and no fitting temporaries
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
    assert peak <= 6 * 8 * (steps + 1)


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


def test_local_error_order_oracle_resolution_insensitive():
    # halving the RK substep changes the measured errors by under 1%
    problem = quadratic_problem(seed=7)
    x0 = np.array([1.2, -0.7, 0.4])
    fit1 = local_error_order("dy", problem, ConstantDamping(1.0), H_GRID, x0=x0,
                             rk_substeps=64)
    fit2 = local_error_order("dy", problem, ConstantDamping(1.0), H_GRID, x0=x0,
                             rk_substeps=128)
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
    with pytest.raises(ParameterError):
        local_error_order("dy", problem, NoDamping(), [1e-3, 2e-3], x0=np.zeros(3))


@pytest.mark.parametrize("name", list(rate_cases()))
def test_rate_case_in_band(name):
    case = rate_cases()[name]
    fit = run_rate_case(name)
    assert case.in_band(fit.exponent)


def test_rate_gradient_flow_convex_power():
    # descent flow on the quartic decays at least as fast as 1/t
    quartic = prox.FunctionOracle(value=lambda x: 0.25 * float(np.sum(x ** 4)),
                                  grad=lambda x: x ** 3)
    fit = continuous_rate_check(GradientFlow(quartic), quartic, np.zeros(1), 0.0,
                                T=200.0, x0=np.array([1.5]), t0=1.0, steps=20_000,
                                kind="power", window=(0.05, 1.0))
    assert fit.exponent <= -0.9
