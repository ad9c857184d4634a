import numpy as np
import pytest

from proxflow import prox, space
from proxflow.monotone import resolvent_of_yosida, step_dy_regularized
from proxflow.solvers import Problem, SolverState, StepConfig, initial_state, step_davis_yin


def test_resolvent_of_yosida_mu_zero_is_exact(rng):
    A = prox.L1(0.7)
    x = rng.standard_normal(5)
    np.testing.assert_array_equal(resolvent_of_yosida(A, 0.9, 0.0, x), A.prox(x, 0.9))


def test_resolvent_of_yosida_zero_operator(rng):
    x = rng.standard_normal(4)
    for mu in (0.0, 0.3, 2.0):
        np.testing.assert_allclose(resolvent_of_yosida(prox.L1(0.0), 1.1, mu, x), x,
                                   rtol=1e-15)


def test_resolvent_of_yosida_abs_value():
    # (mu + lam)^{-1} (mu*x + lam * J_{(mu+lam)A}(x)) at lam = mu = 1, x = 3:
    # soft threshold at 2 gives 1, so the value is (3 + 1)/2 = 2
    got = resolvent_of_yosida(prox.L1(1.0), 1.0, 1.0, np.array([3.0]))
    assert got == pytest.approx([2.0])


def test_resolvent_of_yosida_continuous_in_mu(rng):
    A = prox.L1(0.6)
    lam = 0.8
    xs = [rng.standard_normal(6) for _ in range(10)]
    sups = []
    for mu in (1e-1, 1e-2, 1e-3):
        sups.append(max(
            space.norm(resolvent_of_yosida(A, lam, mu, x)
                       - resolvent_of_yosida(A, lam, 0.0, x)) for x in xs))
    assert sups[0] > sups[1] > sups[2]
    # approximately linear decay in mu
    slope = np.polyfit(np.log([1e-1, 1e-2, 1e-3]), np.log(sups), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.3)


def _regularized_setup(rng):
    A = prox.L1(1.0)
    B = prox.Box(-0.8, 1.2)
    C = prox.LeastSquares(rng.standard_normal((5, 6)), rng.standard_normal(5))
    x0 = np.linspace(-2.0, 2.0, 6) + 0.05
    return A, B, C, x0


def test_step_dy_regularized_matches_davis_yin_at_mu_zero(rng):
    A, B, C, x0 = _regularized_setup(rng)
    problem = Problem(f=A, g=B, w=C)
    lam = 0.7
    state = initial_state(x0)
    smooth = step_davis_yin(state, problem, StepConfig(lam=lam))
    regularized = step_dy_regularized(state, A, B, C, lam, 0.0)
    np.testing.assert_array_equal(regularized.x, smooth.x)
    np.testing.assert_array_equal(regularized.estimate, smooth.estimate)


def test_step_dy_regularized_zero_operators_pure_momentum(rng):
    x = rng.standard_normal(4)
    x_prev = rng.standard_normal(4)
    x_hat = x + 0.5 * (x - x_prev)
    state = SolverState(x=x, x_prev=x_prev, x_hat=x_hat, c=np.zeros(4), k=3)
    new = step_dy_regularized(state, None, None, None, 0.5, 0.1)
    np.testing.assert_allclose(new.x, x_hat, rtol=1e-14)


def test_mu_sweep_one_step_deviation_linear(rng):
    A, B, C, x0 = _regularized_setup(rng)
    lam = 0.7
    state = initial_state(x0)
    base = step_dy_regularized(state, A, B, C, lam, 0.0)
    mus = (1e-1, 1e-2, 1e-3)
    devs = [space.norm(step_dy_regularized(state, A, B, C, lam, mu).x - base.x)
            for mu in mus]
    slope = np.polyfit(np.log(mus), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.3)
