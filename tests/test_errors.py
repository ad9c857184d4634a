"""The admissibility rule of numeric parameters: one helper, one message form."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow import damping, experiments, monotone, odelab, prox, solvers
from proxflow.errors import ParameterError, require

NON_FINITE = (math.nan, math.inf, -math.inf)


def test_require_returns_admissible_values_unchanged():
    assert require(0.5, "lam") == 0.5
    assert require(0.0, "weight", strict=False) == 0.0
    value = np.float64(3.0)
    assert require(value, "r", 3.0, strict=False) is value
    assert require(1e308, "lam") == 1e308


@pytest.mark.parametrize("value", [0.0, -1.0, *NON_FINITE])
def test_require_message_form(value):
    with pytest.raises(ParameterError) as exc:
        require(value, "lam")
    assert str(exc.value) == f"lam must be finite and > 0, got {value}"
    with pytest.raises(ParameterError, match=r"^r must be finite and >= 3, got 2\.5$"):
        require(2.5, "r", 3.0, strict=False)


_V = np.array([1.0, -2.0])
_QUAD = prox.Quadratic(np.diag([2.0, 1.0]), np.array([0.5, -0.5]))
_LASSO = experiments.gen_lasso(5, 8, seed=0)

# Every parameter that must be finite: name -> (call with the value, the name
# the message gives, lower bound, whether the bound itself is refused).
CASES = {
    "L1": (prox.L1, "l1 weight", 0.0, False),
    "Nuclear": (prox.Nuclear, "nuclear weight", 0.0, False),
    "HuberL1.weight": (prox.HuberL1, "huber weight", 0.0, False),
    "HuberL1.delta": (lambda x: prox.HuberL1(1.0, x), "huber delta", 0.0, True),
    "soft_threshold": (lambda x: prox.soft_threshold(_V, x), "threshold", 0.0, False),
    "L1.prox": (lambda x: prox.L1(1.0).prox(_V, x), "prox parameter", 0.0, True),
    "Box.prox": (lambda x: prox.Box(-1.0, 1.0).prox(_V, x), "prox parameter", 0.0, True),
    "Nuclear.prox": (lambda x: prox.Nuclear(1.0).prox(np.eye(2), x), "prox parameter",
                     0.0, True),
    "LeastSquares.prox": (lambda x: prox.LeastSquares(np.eye(2), _V).prox(_V, x),
                          "prox parameter", 0.0, True),
    "Quadratic.prox": (lambda x: _QUAD.prox(_V, x), "prox parameter", 0.0, True),
    "HuberL1.prox": (lambda x: prox.HuberL1(1.0).prox(_V, x), "prox parameter", 0.0, True),
    "Damping.r1": (lambda x: damping.Damping(x, 0.5), "damping r1", 0.0, False),
    "Damping.r2": (lambda x: damping.Damping(3.0, x), "damping r2", 0.0, False),
    "DecayingDamping": (damping.DecayingDamping, "decaying damping r", 3.0, False),
    "ConstantDamping": (damping.ConstantDamping, "constant damping r", 0.0, True),
    "CombinedDamping.r1": (lambda x: damping.CombinedDamping(x, 0.5), "combined damping r1",
                           0.0, True),
    "CombinedDamping.r2": (lambda x: damping.CombinedDamping(3.0, x), "combined damping r2",
                           0.0, True),
    "gamma.h": (lambda x: damping.gamma(damping.NoDamping(), 1, x), "step scale h", 0.0, True),
    "Damping.eta": (lambda x: damping.DecayingDamping().eta(x), "time t of damping r1/t",
                    0.0, True),
    "StepConfig": (solvers.StepConfig, "lam", 0.0, True),
    "dy_fixed_point_operator": (
        lambda x: solvers.dy_fixed_point_operator(solvers.Problem(g=_QUAD), x, _V), "lam",
        0.0, True),
    "stop_on_residual": (solvers.stop_on_residual, "tol", 0.0, False),
    "stop_on_estimate_change": (solvers.stop_on_estimate_change, "tol", 0.0, False),
    "resolvent_of_yosida.lam": (lambda x: monotone.resolvent_of_yosida(_QUAD, x, 0.1, _V),
                                "lam", 0.0, True),
    "resolvent_of_yosida.mu": (lambda x: monotone.resolvent_of_yosida(_QUAD, 1.0, x, _V),
                               "mu", 0.0, False),
    "reference_trajectory": (
        lambda x: odelab.reference_trajectory(odelab.GradientFlow(_QUAD), _V, T=x),
        "time span T - t0", 0.0, True),
    "anneal_schedule.alpha0": (experiments.anneal_schedule, "alpha0", 0.0, False),
    "reference_solution": (lambda x: experiments.reference_solution(_LASSO, tol=x, max_iters=5),
                           "tol", 0.0, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=20)
@given(data=st.data())
def test_inadmissible_values_are_refused_by_name(case, data):
    # NaN, +-inf and every value on the wrong side of the bound are refused,
    # and the message names the parameter
    call, name, minimum, strict = CASES[case]
    below = minimum if strict else math.nextafter(minimum, -math.inf)
    value = data.draw(st.one_of(st.sampled_from(NON_FINITE), st.floats(max_value=below)))
    with pytest.raises(ParameterError, match="^" + re.escape(f"{name} must be finite and")):
        call(value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_admissible_bound_and_large_finite_values_are_accepted(case):
    call, _, minimum, strict = CASES[case]
    if not strict:
        call(minimum)
    if case != "reference_trajectory":     # RK4 at dt = 1e4 leaves float range
        call(1e6)
    call(max(minimum, -1.0) + 0.5)


@pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (1.0, 0.0),
                                   (math.inf, 0.0), (math.nan, math.nan)])
def test_box_refuses_nan_and_empty_bounds(lo, hi):
    with pytest.raises(ParameterError, match="box needs lo <= hi"):
        prox.Box(lo, hi)


def test_box_bounds_may_be_infinite():
    v = np.array([-3.0, 0.5, 7.0])
    assert np.array_equal(prox.Box(-math.inf, math.inf).prox(v, 1.0), v)
    assert np.array_equal(prox.Box(0.0, math.inf).prox(v, 1.0), [0.0, 0.5, 7.0])
    assert np.array_equal(prox.Box(-math.inf, 1.0).prox(v, 1.0), [-3.0, 0.5, 1.0])
