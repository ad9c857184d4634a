import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from proxflow import damping
from proxflow.damping import (
    CombinedDamping,
    ConstantDamping,
    Damping,
    DecayingDamping,
    NoDamping,
)
from proxflow.errors import ParameterError


def test_decaying_at_zero():
    assert damping.gamma(DecayingDamping(3.0), 0, 0.1) == 0.0


def test_decaying_direct_value():
    assert damping.gamma(DecayingDamping(3.0), 3, 0.1) == 0.5


def test_constant_value_at_sqrt_lambda():
    h = math.sqrt(0.1)
    got = damping.gamma(ConstantDamping(0.5), 7, h)
    assert got == pytest.approx(1.0 - 0.5 * h)
    assert got == pytest.approx(0.841886, abs=1e-6)


def test_schedule_parameter_validation():
    with pytest.raises(ParameterError):
        DecayingDamping(2.9)
    with pytest.raises(ParameterError):
        ConstantDamping(0.0)
    with pytest.raises(ParameterError):
        CombinedDamping(0.0, 1.0)
    with pytest.raises(ParameterError):
        CombinedDamping(1.0, -1.0)
    # r1/t alone below 3 is the decaying rule; Damping() would be undamped momentum
    for r1, r2 in ((-1.0, 0.0), (0.0, -0.5), (1.0, 0.0), (0.0, 0.0)):
        with pytest.raises(ParameterError):
            Damping(r1, r2)
    with pytest.raises(ParameterError, match="NoDamping"):
        Damping()


def test_named_schedules_are_cases_of_one_law():
    assert DecayingDamping(4.0) == Damping(r1=4.0)
    assert ConstantDamping(0.5) == Damping(r2=0.5)
    assert CombinedDamping(2.0, 0.4) == Damping(2.0, 0.4)


def test_gamma_argument_validation():
    with pytest.raises(ParameterError):
        damping.gamma(NoDamping(), -1, 0.1)
    with pytest.raises(ParameterError):
        damping.gamma(NoDamping(), 0, 0.0)


def test_constant_clamps_negative_momentum():
    # StepConfig refuses r2*h > 1; the law itself still clamps at zero
    assert damping.gamma(ConstantDamping(3.0), 5, 0.5) == 0.0


def test_decaying_monotone_increasing_below_one():
    sched = DecayingDamping(3.0)
    prev = -1.0
    for k in range(0, 2000, 7):
        g = damping.gamma(sched, k, 0.01)
        assert prev < g < 1.0
        prev = g
    assert damping.gamma(sched, 10**9, 0.01) == pytest.approx(1.0, abs=1e-8)


def test_constant_in_unit_interval_and_flat():
    sched = ConstantDamping(0.5)
    vals = {damping.gamma(sched, k, 0.3) for k in range(10)}
    assert vals == {1.0 - 0.5 * 0.3}
    assert 0.0 < vals.pop() < 1.0


def test_none_schedule_is_zero_everywhere():
    for k in (0, 1, 17):
        for h in (1e-3, 0.5, 2.0):
            assert damping.gamma(NoDamping(), k, h) == 0.0


@pytest.mark.parametrize("make,eta", [
    (lambda: DecayingDamping(3.0), lambda t: 3.0 / t),
    (lambda: CombinedDamping(2.0, 0.4), lambda t: 2.0 / t + 0.4),
])
def test_first_order_consistency(make, eta):
    # gamma_k = 1 - eta(t_k)*h + O(h^2) over t_k = k*h in [1, 2], and the
    # schedule's own eta(t) is the damping it discretizes
    sched = make()
    for h in (1e-1, 1e-2, 1e-3):
        for t in np.arange(1.0, 2.0, 0.125):
            k = round(t / h)
            diff = abs(damping.gamma(sched, k, h) - (1.0 - eta(k * h) * h))
            assert diff <= 10.0 * h * h
            assert sched.eta(t) == eta(t)


@pytest.mark.parametrize("sched", [DecayingDamping(3.0), CombinedDamping(2.0, 0.4)],
                         ids=["decaying", "combined"])
def test_r_over_t_damping_singular_at_zero(sched):
    for t in (0.0, -1.0):
        with pytest.raises(ParameterError):
            sched.eta(t)


def test_only_no_damping_is_unaccelerated():
    assert not NoDamping().accelerated
    for sched in (DecayingDamping(3.0), ConstantDamping(0.5), CombinedDamping(2.0, 0.4)):
        assert sched.accelerated
    assert NoDamping().eta(5.0) == 0.0 and ConstantDamping(0.5).eta(5.0) == 0.5


def test_schedule_for_names():
    assert damping.schedule_for("none") == NoDamping()
    assert damping.schedule_for("decaying") == DecayingDamping(3.0)
    assert damping.schedule_for("decaying", 4.0) == DecayingDamping(4.0)
    assert damping.schedule_for("constant", 0.5) == ConstantDamping(0.5)
    assert damping.schedule_for("combined", r1=2.0, r2=0.4) == CombinedDamping(2.0, 0.4)
    for name, kwargs in (("constant", {}), ("combined", {"r1": 2.0}), ("nope", {})):
        with pytest.raises(ParameterError):
            damping.schedule_for(name, **kwargs)


def test_extrapolate_examples():
    x = np.array([2.0])
    xp = np.array([1.0])
    np.testing.assert_array_equal(damping.extrapolate(x, xp, 0.0), x)
    np.testing.assert_array_equal(damping.extrapolate(x, x, 0.7), x)
    assert damping.extrapolate(x, xp, 0.5) == pytest.approx([2.5])


def test_extrapolate_zero_gamma_returns_same_object():
    # the no-acceleration path must be bit-identical to no extrapolation
    x = np.array([1.0, -2.0])
    assert damping.extrapolate(x, np.array([5.0, 5.0]), 0.0) is x


_H = st.floats(1e-4, 0.5)
_K = st.integers(1, 10**6)


@given(r1=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       r2=st.one_of(st.just(0.0), st.floats(0.0, 20.0)), h=_H, k=_K)
def test_gamma_is_one_minus_eta_h_to_second_order(r1, r2, h, k):
    # gamma_k - (1 - eta(t_k)*h) = r1^2 / (k*(k + r1)) exactly, wherever the
    # clamp at zero does not bite
    assume((r2 > 0 or r1 >= 3) and r2 * h <= 1.0)
    sched = Damping(r1, r2)
    g = sched.gamma(k, h)
    assume(g > 0.0)
    assert abs(g - (1.0 - sched.eta(k * h) * h)) <= r1 * r1 / (k * k) + 1e-12


@given(r=st.floats(3.0, 50.0), h=_H, k=st.integers(0, 10**6), t=st.floats(1e-6, 1e6))
def test_decaying_keeps_its_bits(r, h, k, t):
    sched = DecayingDamping(r)
    assert sched.gamma(k, h) == k / (k + r)
    assert sched.eta(t) == r / t


@given(r=st.floats(1e-6, 20.0), h=_H, k=_K, t=st.floats(1e-6, 1e6))
def test_constant_keeps_its_bits(r, h, k, t):
    assume(r * h <= 1.0)
    sched = ConstantDamping(r)
    assert sched.gamma(k, h) == 1.0 - r * h
    assert sched.eta(t) == r
