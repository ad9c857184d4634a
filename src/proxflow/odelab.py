"""High-accuracy reference flows and empirical order / rate measurements.

The lab integrates two smooth dynamics with classical fixed-step RK4:

    xdot = -grad F(x)                        (descent flow)
    xddot + eta(t)*xdot = -grad F(x)         (damped inertial flow)

and uses them as oracles to measure, for each solver step, the one-step
deviation from the true trajectory as a function of the step scale h.
A first-order method shows a log-log slope of about 2 (local error
O(h^2)); the RK4 oracle's own error is O(substep^4) and therefore
negligible on the grids used here.

Conventions for the one-step tests:

* accelerated mode sets lam = h^2, plain mode lam = h;
* the discrete velocity is matched through x_{k-1} = x_k - h*v_k;
* decaying damping is singular at t = 0, so those flows start at a time
  t0 > 0 and the solver's counter is aligned as k = round(t0/h), which
  makes gamma_k agree with 1 - eta(k*h)*h to O(h^2) at the start time;
* the balance coefficient is matched to the trajectory as
  c_k = -grad g(x_k), the value it attains after any exact step on a
  smooth problem (only the balance-coefficient step reads it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import damping as damping_mod
from . import prox
from .damping import ConstantDamping, DecayingDamping, Schedule
from .errors import NumericalError, ParameterError
from .solvers import METHODS, Problem, SolverState, StepConfig, check_method
from .space import Element, as_element, norm


@dataclass(frozen=True)
class GradientFlow:
    """Descent flow xdot = -grad F(x) for a smooth oracle."""

    second_order = False
    grad: object


@dataclass(frozen=True)
class AcceleratedFlow:
    """Damped inertial flow xddot + eta(t)*xdot = -grad F(x)."""

    second_order = True
    grad: object
    schedule: Schedule

    def eta(self, t: float) -> float:
        return self.schedule.eta(t)


@dataclass(eq=False)
class Trajectory:
    ts: np.ndarray
    xs: np.ndarray                 # (steps+1,) + shape of x0
    vs: np.ndarray | None = None   # velocities, second-order flows only


def reference_trajectory(
    flow,
    x0: Element,
    v0: Element | None = None,
    t0: float = 0.0,
    T: float = 1.0,
    steps: int = 100,
) -> Trajectory:
    """Integrate a flow with fixed-step RK4 from t0 to T.

    Second-order flows need ``v0``; decaying damping needs t0 > 0 (the
    coefficient r/t is singular at zero).  Raises NumericalError if the
    state leaves float range.
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if T <= t0:
        raise ParameterError(f"need T > t0, got T={T}, t0={t0}")
    x0 = as_element(x0, "x0")
    grad = flow.grad.grad
    dt = (T - t0) / steps
    ts = t0 + dt * np.arange(steps + 1)

    if flow.second_order:
        if v0 is None:
            raise ParameterError("second-order flow needs an initial velocity v0")
        flow.eta(t0)    # an r/t damping raises ParameterError for t0 <= 0
        y = np.stack([x0, as_element(v0, "v0")])

        def deriv(t, src, dst):    # src, dst: (x, v) views
            dst[0][...] = src[1]
            np.multiply(-flow.eta(t), src[1], out=dst[1])
            np.subtract(dst[1], grad(src[0]), out=dst[1])

    else:
        y = x0.copy()

        def deriv(t, src, dst):
            np.negative(grad(src), out=dst)

    # k1..k4 and the stage point live in five buffers allocated once; the
    # arithmetic and its order are the textbook step's, so the bits are too.
    ys = np.empty((steps + 1,) + y.shape)
    ys[0] = y
    k1, k2, k3, k4, stage = bufs = [np.empty_like(y) for _ in range(5)]
    y_, k1_, k2_, k3_, k4_, stage_ = (
        tuple(b) if flow.second_order else b for b in [y] + bufs)
    half = dt / 2
    for i in range(steps):
        t = ts[i]
        deriv(t, y_, k1_)
        np.multiply(k1, half, out=stage)
        stage += y
        deriv(t + half, stage_, k2_)
        np.multiply(k2, half, out=stage)
        stage += y
        deriv(t + half, stage_, k3_)
        np.multiply(k3, dt, out=stage)
        stage += y
        deriv(t + dt, stage_, k4_)
        # y += (dt/6) * (k1 + 2*k2 + 2*k3 + k4), summed left to right
        k2 *= 2
        k2 += k1
        k3 *= 2
        k2 += k3
        k2 += k4
        k2 *= dt / 6
        y += k2
        if not np.isfinite(y).all():
            raise NumericalError(f"reference trajectory left float range at t={ts[i + 1]:g}")
        ys[i + 1] = y
    if flow.second_order:
        return Trajectory(ts=ts, xs=ys[:, 0], vs=ys[:, 1])
    return Trajectory(ts=ts, xs=ys)


# ---------------------------------------------------------------------------
# order measurement


@dataclass(eq=False)
class OrderFit:
    """Least-squares fit of log10(error) against log10(h)."""

    hs: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    r_squared: float


def _line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ slope*x + intercept and its r^2; centres x, y in place."""
    if len(x) < 2:
        raise ParameterError(f"need at least 2 samples for a line fit, got {len(x)}")
    x_mean, y_mean = x.mean(), y.mean()
    x -= x_mean
    y -= y_mean
    sxy = float(x @ y)
    slope = sxy / float(x @ x)
    ss_tot = float(y @ y)
    r2 = 1.0 - (ss_tot - slope * sxy) / ss_tot if ss_tot > 0 else 1.0
    return slope, float(y_mean - slope * x_mean), r2


def total_gradient(problem: Problem):
    """Gradient oracle of F = f + g + w; every present term must be smooth.

    Its ``lipschitz()`` is the sum of the terms' gradient Lipschitz
    estimates, or None unless every term reports one.
    """
    terms = [t for t in (problem.f, problem.g, problem.w) if t is not None]
    for t in terms:
        if not hasattr(t, "grad"):
            raise ParameterError(f"term {type(t).__name__} has no gradient; "
                                 "order measurement needs a smooth instance")

    class _Total:
        def grad(self, x):
            return sum((t.grad(x) for t in terms), np.zeros_like(x))

        def lipschitz(self):
            ests = [t.lipschitz() if hasattr(t, "lipschitz") else None for t in terms]
            return None if None in ests else sum(ests, 0.0)

    return _Total()


def local_error_order(
    method: str,
    problem: Problem,
    schedule: Schedule,
    h_values,
    x0: Element,
    t0: float = 1.0,
    rk_substeps: int = 64,
) -> OrderFit:
    """Fit the one-step error of a solver step against the reference flow.

    For each h the prox parameter is lam = h^2 (accelerated) or lam = h
    (plain); one step is taken from a state matched to the trajectory
    point x0 (with a fixed generic velocity v0 in accelerated mode) as
    described in the module docstring, and the error
    ||x_step - x(t+h)|| is fitted on log-log axes.  The largest steps are
    dropped above 0.1/sqrt(L) when a Lipschitz estimate is available,
    where higher-order terms would pollute the fit.  First-order methods
    give a slope near 2.
    """
    check_method(method, problem)
    x0 = as_element(x0, "x0")
    h_values = sorted(float(h) for h in h_values)
    if len(h_values) < 3:
        raise ParameterError(f"need at least 3 points for an order fit, got {len(h_values)}")
    if math.log10(h_values[-1] / h_values[0]) < 1.5 - 1e-9:
        raise ParameterError("h_values must span at least 1.5 decades")
    total = total_gradient(problem)
    L = total.lipschitz()
    if L is not None and L > 0:
        kept = [h for h in h_values if h <= 0.1 / math.sqrt(L)]
        if len(kept) >= 3:
            h_values = kept

    accelerated = schedule.accelerated
    # Deterministic, generic velocity; avoid anything proportional to
    # grad F(x0), which could cancel the leading error term.
    v0 = np.cos(1.0 + np.arange(x0.size)).reshape(x0.shape) if accelerated else None
    step_fn = METHODS[method][0]
    c = -problem.g.grad(x0)     # the matched balance coefficient

    # every step's config first, so a bad one (say r2*h > 1) fails before any RK work
    cfgs = [StepConfig(lam=h * h, schedule=schedule) if accelerated else StepConfig(lam=h)
            for h in h_values]
    errors = []
    for h, cfg in zip(h_values, cfgs):
        if accelerated:
            k0 = max(1, round(t0 / h))
            x_prev = x0 - h * v0
            x_hat = damping_mod.extrapolate(x0, x_prev, damping_mod.gamma(schedule, k0, h))
            flow, t_start = AcceleratedFlow(total, schedule), k0 * h
        else:
            k0, x_prev, x_hat = 1, x0, x0
            flow, t_start = GradientFlow(total), 0.0
        state = SolverState(x=x0, x_prev=x_prev, x_hat=x_hat, c=c, k=k0, estimate=x0)
        new = step_fn(state, problem, cfg)
        ref = reference_trajectory(flow, x0, v0, t0=t_start, T=t_start + h,
                                   steps=rk_substeps)
        errors.append(norm(new.x - ref.xs[-1]))
    hs, errors = np.array(h_values), np.array(errors)
    slope, intercept, r2 = _line_fit(np.log10(hs), np.log10(errors))
    return OrderFit(hs=hs, errors=errors, slope=slope, intercept=intercept, r_squared=r2)


# ---------------------------------------------------------------------------
# continuous-rate measurement


@dataclass(eq=False)
class RateFit:
    """Fitted decay of a reference trajectory.

    ``kind="exponential"``: rate a from ||x - x*|| ~ exp(-a t) (so the
    value compares directly to the curvature m, or to sqrt(m) for the
    critically damped inertial flow; the squared distance would double
    it).  ``kind="power"``: exponent p from F - F* ~ t^p, p < 0.
    """

    kind: str
    exponent: float
    r_squared: float


def continuous_rate_check(
    flow,
    objective,
    x_star: Element,
    F_star: float,
    T: float,
    *,
    x0: Element,
    v0: Element | None = None,
    t0: float = 0.0,
    steps: int = 4000,
    kind: str = "exponential",
    window: tuple[float, float] = (0.5, 1.0),
) -> RateFit:
    """Fit the decay rate of a reference trajectory toward a known optimum.

    Exponential fits regress log||x(t) - x*|| on t over the trailing
    ``window`` fraction of the horizon.  Power fits regress
    log(F(x(t)) - F*) on log t; they first take the
    decreasing upper envelope of the samples, since inertial
    trajectories on convex problems oscillate around the optimum and the
    envelope is what the t^p bound describes.
    """
    if kind not in ("exponential", "power"):
        raise ParameterError(f"unknown fit kind {kind!r}; use 'exponential' or 'power'")
    if not 0.0 <= window[0] < window[1] <= 1.0:
        raise ParameterError(f"window must satisfy 0 <= w0 < w1 <= 1, got {window}")
    exponential = kind == "exponential"
    traj = reference_trajectory(flow, x0, v0, t0=t0, T=T, steps=steps)
    ts = traj.ts
    # one float per sample; the trajectory is dropped before the fit
    data = np.fromiter((norm(x - x_star) if exponential else objective.value(x) - F_star
                        for x in traj.xs), float, count=len(ts))
    del traj
    lo, hi = (t0 + w * (T - t0) for w in window)
    mask = (ts >= lo) & (ts <= hi)
    if exponential:
        mask &= data > 0
        x = ts[mask]
    else:
        np.maximum(data, 0.0, out=data)
        np.maximum.accumulate(data[::-1], out=data[::-1])
        mask &= (data > 0) & (ts > 0)
        x = np.log(ts[mask])
    y = data[mask]
    slope, _, r2 = _line_fit(x, np.log(y, out=y))
    return RateFit(kind=kind, exponent=-slope if exponential else slope, r_squared=r2)


@dataclass(frozen=True, eq=False)
class RateCase:
    """A reference flow whose continuous decay rate is known.

    ``config`` holds the arguments of :func:`continuous_rate_check`
    beyond the flow and its objective (the flow's own oracle); the fitted
    value must fall in ``band`` = (lo, hi) around ``predicted``.
    """

    flow: object
    predicted: float
    band: tuple[float, float]
    config: dict

    def in_band(self, fitted: float) -> bool:
        return self.band[0] <= fitted <= self.band[1]


def rate_cases() -> dict[str, RateCase]:
    """The rate cases that ``proxflow rates`` fits, by name."""
    quad = prox.Quadratic(np.diag([1.0, 4.0]))
    quartic = prox.FunctionOracle(
        value=lambda x: 0.25 * float(np.sum(x**4)), grad=lambda x: x**3)
    m = 4.0
    quad1 = prox.Quadratic(np.array([[m]]))
    return {
        # strongly convex descent flow: distance ~ exp(-m t), m = 1, within 15%
        "gradient-flow-strongly-convex": RateCase(
            GradientFlow(quad), 1.0, (0.85, 1.15),
            dict(x_star=np.zeros(2), F_star=0.0, T=8.0, x0=np.array([1.0, 1.0]),
                 steps=4000, kind="exponential")),
        # convex (degenerate) objective under decaying damping: for r >= 3,
        # F - F* = O(t^-2) is a worst-case bound, so the check is one-sided by
        # design: a fitted exponent of -1.7 or below (this quartic fits -3.15, r^2 0.73)
        "accelerated-decaying-convex": RateCase(
            AcceleratedFlow(quartic, DecayingDamping(3.0)), -2.0, (-math.inf, -1.7),
            dict(x_star=np.zeros(1), F_star=0.0, T=300.0, x0=np.array([1.5]),
                 v0=np.zeros(1), t0=1.0, steps=120_000, kind="power",
                 window=(0.03, 1.0))),
        # strongly convex (m = 4) under critical constant damping: distance ~
        # exp(-sqrt(m) t), within 25%
        "accelerated-constant-strongly-convex": RateCase(
            AcceleratedFlow(quad1, ConstantDamping(2.0 * math.sqrt(m))), math.sqrt(m),
            (0.75 * math.sqrt(m), 1.25 * math.sqrt(m)),
            dict(x_star=np.zeros(1), F_star=0.0, T=10.0, x0=np.array([1.0]),
                 v0=np.zeros(1), steps=8000, kind="exponential")),
    }


def run_rate_case(name: str) -> RateFit:
    """Fit the decay of one of :func:`rate_cases` with its configuration."""
    case = rate_cases()[name]
    return continuous_rate_check(case.flow, case.flow.grad, **case.config)
