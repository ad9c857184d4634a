"""High-accuracy reference flows and empirical order / rate measurements.

The lab integrates two smooth dynamics with the textbook fixed-step RK4
step (Hairer, Nørsett & Wanner, Solving Ordinary Differential Equations I):

    xdot = -grad F(x)                        (descent flow)
    xddot + eta(t)*xdot = -grad F(x)         (damped inertial flow)

and uses them as oracles to measure, for each solver step, the one-step
deviation from the true trajectory as a function of the step scale h.
A first-order method shows a log-log slope of about 2 (local error
O(h^2)); the RK4 oracle's own error is O(substep^4) and therefore
negligible on the grids used here.  The RK4 loop is written once, as a
generator of states (:func:`_rk4`, which also states when a state steps
on Python floats): reference_trajectory stores them, while
continuous_rate_check turns each into its sample as it is produced, so a
rate fit stores the time grid and one float per sample, never the
trajectory.

Conventions for the one-step tests:

* accelerated mode sets lam = h^2, plain mode lam = h;
* the matched state is the solver's own momentum transition
  (``solvers._advance``) from x_{k-1} to x_k, so its xhat_k is the one a
  run would hold;
* the discrete velocity is matched through x_{k-1} = x_k - h*v_k (plain
  mode has no velocity: x_{k-1} = x_k);
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

from . import prox
from .damping import ConstantDamping, DecayingDamping, Schedule
from .errors import NumericalError, ParameterError, require
from .solvers import Problem, SolverState, StepConfig, _advance, check_method
from .space import Element, as_element, check_same_shape, norm

RK_SUBSTEPS = 64        # RK4 steps of the reference flow over one solver step


@dataclass(frozen=True)
class GradientFlow:
    """Descent flow xdot = -grad F(x) for any oracle with ``grad``, a
    :class:`Problem` included."""

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


def _start(flow, x0, v0, t0, T, steps):
    """Check a flow's start and horizon; return the time grid of ``steps``
    RK4 steps from t0 to T, its step dt, and the initial state as arrays."""
    if not (steps >= 1 and steps % 1 == 0):     # NaN and inf fail too
        raise ParameterError(f"steps must be a whole number >= 1, got {steps}")
    require(T - t0, "time span T - t0")
    x0 = as_element(x0, "x0")
    if flow.second_order:
        if v0 is None:
            raise ParameterError("second-order flow needs an initial velocity v0")
        flow.eta(t0)    # an r/t damping raises ParameterError for t0 <= 0
        v0 = as_element(v0, "v0")
        check_same_shape(x0, v0)
    dt = (T - t0) / steps
    return t0 + dt * np.arange(steps + 1), dt, x0, v0


def _rk4(flow, ts, dt, x0, v0):
    """Yield the state (x, v) at each time of the grid ``ts``: (x0, v0),
    then one textbook RK4 step of size dt per grid interval (v is read for
    second-order flows only).  Raises NumericalError when the state leaves
    float range.

    A state with one entry whose gradient is a :class:`prox.FunctionOracle`
    steps on Python floats (the oracle's callable is then passed a float),
    and its x and v are yielded as floats; every other state steps and is
    yielded as arrays.  Both run the same operations in the same order, so
    they give the same bits.
    """
    second = flow.second_order
    yield x0, v0
    if x0.size == 1 and isinstance(flow.grad, prox.FunctionOracle):
        oracle = flow.grad

        def grad(x):
            try:
                return float(oracle.grad(x))
            except OverflowError:    # float ** raises where numpy gives inf
                return math.nan

        x, finite = x0.item(), math.isfinite
        v = v0.item() if second else 0.0
    else:
        grad = flow.grad.grad
        x, v = x0, v0 if second else 0.0

        def finite(y):
            return np.isfinite(y).all()

    def field(t, x, v):     # (xdot, vdot); a first-order state keeps v = 0.0
        return (v, -flow.eta(t) * v - grad(x)) if second else (-grad(x), 0.0)

    half = dt / 2
    for i in range(len(ts) - 1):
        t = ts.item(i)      # a Python float: a numpy scalar would spread to the state
        k1x, k1v = field(t, x, v)
        k2x, k2v = field(t + half, x + half * k1x, v + half * k1v)
        k3x, k3v = field(t + half, x + half * k2x, v + half * k2v)
        k4x, k4v = field(t + dt, x + dt * k3x, v + dt * k3v)
        x = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not (finite(x) and finite(v)):
            raise NumericalError(f"reference trajectory left float range at t={ts[i + 1]:g}")
        yield x, v


def reference_trajectory(
    flow,
    x0: Element,
    v0: Element | None = None,
    t0: float = 0.0,
    T: float = 1.0,
    steps: int = 100,
) -> Trajectory:
    """Integrate a flow with the textbook RK4 step of :func:`_rk4` from t0
    to T and store every state.

    ``steps`` must be a whole number >= 1.  Second-order flows need
    ``v0``; decaying damping needs t0 > 0 (the coefficient r/t is singular
    at zero).  Raises NumericalError if the state leaves float range.
    """
    ts, dt, x0, v0 = _start(flow, x0, v0, t0, T, steps)
    second = flow.second_order
    xs = np.empty((len(ts),) + x0.shape)
    vs = np.empty_like(xs) if second else None
    for i, (x, v) in enumerate(_rk4(flow, ts, dt, x0, v0)):
        xs[i] = x
        if second:
            vs[i] = v
    return Trajectory(ts=ts, xs=xs, vs=vs)


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


def check_grid(points: int, lo: float, hi: float,
               names: tuple[str, str] = ("h_values", "h_values")) -> None:
    """Refuse a grid of steps h that cannot carry an order fit: fewer than
    3 points, or ends lo <= hi less than 1.5 decades apart.  ``names`` name
    the point count and the ends in the message."""
    if points < 3:
        raise ParameterError(f"{names[0]}: an order fit needs at least 3 points, got {points}")
    if not hi >= lo * 10 ** (1.5 - 1e-9):      # not log10(hi / lo): lo may be 0
        raise ParameterError(f"{names[1]}: an order fit needs steps spanning at least "
                             f"1.5 decades, got {lo:g} to {hi:g}")


def _matched_starts(problem: Problem, schedule: Schedule, x0: Element, h_values, t0: float):
    """The matched start of a solver at x0 for each step h (module docstring).

    Returns the flow through x0, its velocity v0 there (None in plain
    mode) and, per h, the step config, the state a run holds at x0 (the
    solver's own transition from x_{k0-1} to x0) and the flow time of x0.
    It does no RK work, so a bad config (say r2*h > 1) fails before any.
    """
    accelerated = schedule.accelerated
    # Deterministic, generic velocity; avoid anything proportional to
    # grad F(x0), which could cancel the leading error term.
    v0 = np.cos(1.0 + np.arange(x0.size)).reshape(x0.shape) if accelerated else None
    c = -problem.g.grad(x0)     # the matched balance coefficient
    flow = AcceleratedFlow(problem, schedule) if accelerated else GradientFlow(problem)
    starts = []
    for h in h_values:
        cfg = StepConfig(lam=h * h, schedule=schedule) if accelerated else StepConfig(lam=h)
        k0, x_prev = (max(1, round(t0 / h)), x0 - h * v0) if accelerated else (1, x0)
        start = SolverState(x=x_prev, x_prev=x_prev, x_hat=x_prev, c=c, k=k0 - 1)
        state = _advance(start, x0, cfg, c=c, last_half=None, estimate=x0, residual=math.nan)
        starts.append((cfg, state, k0 * h if accelerated else 0.0))
    return flow, v0, starts


def local_error_order(
    method: str,
    problem: Problem,
    schedule: Schedule,
    h_values,
    x0: Element,
    t0: float = 1.0,
) -> OrderFit:
    """Fit the one-step error of a solver step against the reference flow.

    For each h the prox parameter is lam = h^2 (accelerated) or lam = h
    (plain); one step is taken from a state matched to the trajectory
    point x0 (with a fixed generic velocity v0 in accelerated mode) as
    described in the module docstring, and the error
    ||x_step - x(t+h)|| is fitted on log-log axes.  The largest steps are
    dropped above 0.1/sqrt(L) when a Lipschitz estimate is available,
    where higher-order terms would pollute the fit.  First-order methods
    give a slope near 2.  A non-finite step or a grid that cannot carry a
    fit (see :func:`check_grid`) is refused before any step.
    """
    step_fn = check_method(method, problem)
    for t in (problem.f, problem.g, problem.w):
        if t is not None and not hasattr(t, "grad"):
            raise ParameterError(f"term {type(t).__name__} has no gradient; "
                                 "order measurement needs a smooth instance")
    x0 = as_element(x0, "x0")
    h_values = sorted(float(h) for h in h_values)
    if not all(map(math.isfinite, h_values)):
        raise ParameterError(f"h_values: every step must be finite, got {h_values}")
    check_grid(len(h_values), min(h_values, default=0.0), max(h_values, default=0.0))
    accelerated = schedule.accelerated
    # the prox parameter of the smallest step (h^2 may underflow to 0)
    if not (h_values[0] * h_values[0] if accelerated else h_values[0]) > 0:
        raise ParameterError(f"h = {h_values[0]:g} is too small: its prox parameter "
                             f"{'h^2' if accelerated else 'h'} is not > 0")
    L = problem.lipschitz()
    if L is not None and L > 0:
        kept = [h for h in h_values if h <= 0.1 / math.sqrt(L)]
        if len(kept) >= 3:
            h_values = kept

    flow, v0, starts = _matched_starts(problem, schedule, x0, h_values, t0)
    errors = []
    for h, (cfg, state, t_start) in zip(h_values, starts):
        new = step_fn(state, problem, cfg)
        ref = reference_trajectory(flow, x0, v0, t0=t_start, T=t_start + h, steps=RK_SUBSTEPS)
        errors.append(norm(new.x - ref.xs[-1]))
        if not 0 < errors[-1] < math.inf:
            raise ParameterError(f"one-step error at h = {h:g} is {errors[-1]}; "
                                 "a log-log fit needs it finite and > 0")
    hs, errors = np.array(h_values), np.array(errors)
    slope, intercept, r2 = _line_fit(np.log10(hs), np.log10(errors))
    return OrderFit(hs=hs, errors=errors, slope=slope, intercept=intercept, r_squared=r2)


# ---------------------------------------------------------------------------
# continuous-rate measurement


@dataclass(eq=False)
class RateFit:
    """Fitted decay of a reference trajectory.

    An exponential fit gives the rate a from ||x - x*|| ~ exp(-a t) (so
    the value compares directly to the curvature m, or to sqrt(m) for the
    critically damped inertial flow; the squared distance would double
    it).  A power fit gives the exponent p from F - F* ~ t^p, p < 0.
    """

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

    The trajectory is never stored: each RK4 state becomes its sample as
    it is produced, so the fit holds the time grid and one float per
    sample.  ``x_star`` must be finite with the shape of ``x0``, ``F_star``
    finite, ``window`` a pair with 0 <= w0 < w1 <= 1 and ``steps`` a whole
    number >= 1; all are checked before any RK work.
    """
    if kind not in ("exponential", "power"):
        raise ParameterError(f"unknown fit kind {kind!r}; use 'exponential' or 'power'")
    if len(window) != 2 or not 0.0 <= window[0] < window[1] <= 1.0:
        raise ParameterError(f"window must be a pair (w0, w1) with 0 <= w0 < w1 <= 1, "
                             f"got {window}")
    require(F_star, "F_star", -math.inf)
    ts, dt, x0, v0 = _start(flow, x0, v0, t0, T, steps)
    x_star = as_element(x_star, "x_star")
    check_same_shape(x0, x_star)
    exponential = kind == "exponential"
    # Each state becomes its sample as it is produced.  A state with one
    # entry is first written to its own slot, so that the sample is taken
    # on the row a stored trajectory would hold: a float's x**4 can differ
    # from an array's in the last bit.
    data = np.empty(len(ts))
    rows = data.reshape((-1,) + x0.shape) if x0.size == 1 else None
    for i, (x, _) in enumerate(_rk4(flow, ts, dt, x0, v0)):
        if rows is not None:
            rows[i] = x
            x = rows[i]
        data[i] = norm(x - x_star) if exponential else objective.value(x) - F_star

    # the fit, on views of ts and data: the window is an index range
    lo, hi = (t0 + w * (T - t0) for w in window)
    a, b = np.searchsorted(ts, lo), np.searchsorted(ts, hi, "right")
    if exponential:
        x = ts[a:b]
    else:
        np.maximum(data, 0.0, out=data)
        np.maximum.accumulate(data[::-1], out=data[::-1])
        a = max(a, np.searchsorted(ts, 0.0, "right"))     # log t needs t > 0
        x = np.log(ts[a:b], out=ts[a:b])
    y = data[a:b]
    keep = y > 0    # a zero sample has no log: only then are the others copied out
    if not keep.all():
        x, y = x[keep], y[keep]
    slope, _, r2 = _line_fit(x, np.log(y, out=y))
    return RateFit(exponent=-slope if exponential else slope, r_squared=r2)


@dataclass(frozen=True, eq=False)
class RateCase:
    """A reference flow whose continuous decay rate is known.

    ``config`` holds the arguments of :func:`continuous_rate_check`
    beyond the flow and its objective (the flow's own oracle); the fitted
    value is in band when ``band(predicted, fitted)`` holds, the rule of
    acceptance criterion 5.
    """

    flow: object
    predicted: float
    band: object            # band(predicted, fitted) -> bool
    config: dict

    def fit(self) -> RateFit:
        """Fit this case's decay with its configuration."""
        return continuous_rate_check(self.flow, self.flow.grad, **self.config)

    def in_band(self, fitted: float) -> bool:
        return self.band(self.predicted, fitted)


# The band an order-check slope must fall in: a first-order step's local
# error is O(h^2).  The rate cases below carry their own bands.
SLOPE_BAND = (1.8, 2.2)


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
            GradientFlow(quad), 1.0, lambda pred, fit: abs(fit - pred) <= 0.15 * pred,
            dict(x_star=np.zeros(2), F_star=0.0, T=8.0, x0=np.array([1.0, 1.0]),
                 steps=4000, kind="exponential")),
        # convex (degenerate) objective under decaying damping: for r >= 3,
        # F - F* = O(t^-2) is a worst-case bound, so the check is one-sided by
        # design: a fitted exponent of -1.7 or below (this quartic fits -3.15, r^2 0.73)
        "accelerated-decaying-convex": RateCase(
            AcceleratedFlow(quartic, DecayingDamping(3.0)), -2.0, lambda pred, fit: fit <= -1.7,
            dict(x_star=np.zeros(1), F_star=0.0, T=300.0, x0=np.array([1.5]),
                 v0=np.zeros(1), t0=1.0, steps=120_000, kind="power",
                 window=(0.03, 1.0))),
        # strongly convex (m = 4) under critical constant damping: distance ~
        # exp(-sqrt(m) t), within 25%
        "accelerated-constant-strongly-convex": RateCase(
            AcceleratedFlow(quad1, ConstantDamping(2.0 * math.sqrt(m))), math.sqrt(m),
            lambda pred, fit: abs(fit - pred) <= 0.25 * pred,
            dict(x_star=np.zeros(1), F_star=0.0, T=10.0, x0=np.array([1.0]),
                 v0=np.zeros(1), steps=8000, kind="exponential")),
    }
