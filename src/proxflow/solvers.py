"""Operator-splitting steps for three-term objectives and the run loop.

The solvers minimize  f(x) + g(x) + w(x)  where f and g are prox-capable
(possibly nonsmooth) and w is smooth.  Three step families are provided:

* :func:`step_admm` - two backward passes coupled through a balance
  coefficient ``c`` that plays the role of the ADMM dual variable and
  keeps stationary points of the underlying flow fixed.  With w absent
  and no momentum this is exactly classical two-block ADMM.
* :func:`step_davis_yin` - three-operator splitting.  It reduces to
  Douglas-Rachford when w is absent and to forward-backward (proximal
  gradient) when f is absent.
* :func:`step_tseng` - forward-backward-forward splitting for problems
  with f absent; requires lam below 1/L for the gradient of w (no bound
  is enforced, callers pick lam).

Momentum enters only through the extrapolated point

    xhat_k = x_k + gamma_k * (x_k - x_{k-1}),

so with ``NoDamping``, the default, every step reproduces its classical
fixed-point iteration exactly.  In accelerated mode the step scale is
h = sqrt(lam); in plain mode h = lam.

Each step stores its own fixed-point residual and first prox output on
the state, so the run loop never asks which method ran.  ``METHODS`` maps
each method name to its step, the terms it needs and the terms it needs
absent; every check of a (method, problem) pairing reads it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import damping, space
from .damping import NoDamping, Schedule
from .errors import ConfigurationError, ParameterError
from .space import Element

DIVERGENCE_NORM = 1e12


@dataclass(frozen=True, eq=False)
class Problem:
    """Three-term split; absent terms behave as the zero function."""

    f: object | None = None
    g: object | None = None
    w: object | None = None

    def __post_init__(self):
        if self.f is None and self.g is None and self.w is None:
            raise ConfigurationError("at least one of f, g, w must be present")

    def prox_f(self, v: Element, lam: float) -> Element:
        return v if self.f is None else self.f.prox(v, lam)

    def prox_g(self, v: Element, lam: float) -> Element:
        return v if self.g is None else self.g.prox(v, lam)

    def grad_w(self, x: Element) -> Element:
        return np.zeros_like(x) if self.w is None else self.w.grad(x)

    def value(self, x: Element) -> float | None:
        """Objective F(x) when every present term can report a value."""
        total = 0.0
        for term in (self.f, self.g, self.w):
            if term is None:
                continue
            if not hasattr(term, "value"):
                return None
            total += term.value(x)
        return total


@dataclass(frozen=True)
class StepConfig:
    """Prox parameter and momentum schedule for one solver run.

    The step scale used by the schedule is derived: h = sqrt(lam) in
    accelerated mode, h = lam otherwise.
    """

    lam: float
    schedule: Schedule = NoDamping()

    def __post_init__(self):
        if self.lam <= 0:
            raise ParameterError(f"lam must be > 0, got {self.lam}")
        if self.schedule is None:
            raise ParameterError("schedule is None; pass NoDamping() for no momentum")
        if self.schedule.accelerated and self.schedule.r2 * self.h > 1:
            raise ParameterError(
                f"damping r2*h = {self.schedule.r2 * self.h:.3g} > 1 (h = sqrt(lam), "
                f"lam = {self.lam}) clamps the momentum to 0 at every k; lower r2 or lam")

    @property
    def h(self) -> float:
        return math.sqrt(self.lam) if self.schedule.accelerated else self.lam


@dataclass(frozen=True, eq=False)
class SolverState:
    """Iterate bundle carried between steps.

    ``estimate`` is the output of the backward (prox-g) pass, the natural
    solution estimate: it is feasible whenever g is an indicator and it
    converges to the minimizer also for the Davis-Yin family, whose raw
    fixed-point variable ``x`` does not.  ``last_half`` is the step's
    first prox output (x_{k+1/4} = prox_f(xhat_k) for the three-operator
    step, x_{k+1/2} for the other two) and ``residual`` its fixed-point
    residual (NaN at k = 0).
    """

    x: Element
    x_prev: Element
    x_hat: Element
    c: Element
    k: int
    last_half: Element | None = None
    estimate: Element | None = None
    residual: float = math.nan


def initial_state(x0: Element) -> SolverState:
    """State at k = 0: xhat_0 = x_0 and c_0 = 0."""
    x0 = space.as_element(x0, "x0")
    return SolverState(x=x0, x_prev=x0, x_hat=x0, c=np.zeros_like(x0), k=0, estimate=x0)


def _advance(state, x_next, cfg, *, c, last_half, estimate, residual) -> SolverState:
    k1 = state.k + 1
    g = damping.gamma(cfg.schedule, k1, cfg.h)
    x_hat1 = damping.extrapolate(x_next, state.x, g)
    return SolverState(
        x=x_next, x_prev=state.x, x_hat=x_hat1, c=c, k=k1,
        last_half=last_half, estimate=estimate, residual=residual,
    )


def step_admm(state: SolverState, problem: Problem, cfg: StepConfig) -> SolverState:
    """One balance-coefficient splitting step (f and g required, w optional).

    x_{k+1/2} = prox_f(xhat_k - lam*grad_w(xhat_k) + lam*c_k)
    x_{k+1}   = prox_g(x_{k+1/2} - lam*c_k)
    c_{k+1}   = c_k + (x_{k+1} - x_{k+1/2}) / lam

    The residual is ||x_{k+1} - x_{k+1/2}|| + ||x_{k+1} - x_k||.  Momentum
    extrapolates the primal iterate only; the coefficient c (the dual
    variable) is never extrapolated, unlike "fast" ADMM variants that
    accelerate the multiplier update as well.
    """
    check_method("admm", problem)
    lam = cfg.lam
    xh = state.x_hat
    c = state.c
    x_half = problem.prox_f(xh - lam * problem.grad_w(xh) + lam * c, lam)
    x_next = problem.prox_g(x_half - lam * c, lam)
    c_next = c + (x_next - x_half) / lam
    return _advance(state, x_next, cfg, c=c_next, last_half=x_half, estimate=x_next,
                    residual=space.norm(x_next - x_half) + space.norm(x_next - state.x))


def step_davis_yin(state: SolverState, problem: Problem, cfg: StepConfig) -> SolverState:
    """One three-operator splitting step (g required; f, w optional).

    x_{k+1/4} = prox_f(xhat_k)
    x_{k+1/2} = 2*x_{k+1/4} - xhat_k
    x_{k+3/4} = prox_g(x_{k+1/2} - lam*grad_w(x_{k+1/4}))
    x_{k+1}   = xhat_k + x_{k+3/4} - x_{k+1/4}

    The residual is ||x_{k+1} - xhat_k|| = ||xhat_k - P(xhat_k)|| for the
    map P of :func:`dy_fixed_point_operator`.
    """
    check_method("dy", problem)
    lam = cfg.lam
    xh = state.x_hat
    x_q = problem.prox_f(xh, lam)
    x_half = 2.0 * x_q - xh
    x_tq = problem.prox_g(x_half - lam * problem.grad_w(x_q), lam)
    x_next = xh + x_tq - x_q
    return _advance(state, x_next, cfg, c=state.c, last_half=x_q, estimate=x_tq,
                    residual=space.norm(x_next - xh))


def step_tseng(state: SolverState, problem: Problem, cfg: StepConfig) -> SolverState:
    """One forward-backward-forward step (f must be absent; g and w required).

    x_{k+1/2} = prox_g(xhat_k - lam*grad_w(xhat_k))
    x_{k+1}   = x_{k+1/2} - lam*(grad_w(x_{k+1/2}) - grad_w(xhat_k))

    The residual is ||x_{k+1} - xhat_k||.
    """
    check_method("tseng", problem)
    lam = cfg.lam
    xh = state.x_hat
    gw_hat = problem.grad_w(xh)
    x_half = problem.prox_g(xh - lam * gw_hat, lam)
    x_next = x_half - lam * (problem.grad_w(x_half) - gw_hat)
    return _advance(state, x_next, cfg, c=state.c, last_half=x_half, estimate=x_half,
                    residual=space.norm(x_next - xh))


# Every method by name: its step, the terms it needs and the terms that
# must be absent.  "dr" and "fb" are the w-absent and f-absent reductions
# of the three-operator step.
METHODS = {
    "admm": (step_admm, ("f", "g"), ()),
    "dy": (step_davis_yin, ("g",), ()),
    "dr": (step_davis_yin, ("g",), ("w",)),
    "fb": (step_davis_yin, ("g",), ("f",)),
    "tseng": (step_tseng, ("g", "w"), ("f",)),
}


def method_spec(method: str) -> tuple:
    """The ``METHODS`` entry (step, needed terms, absent terms) of a method."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
    return METHODS[method]


def check_method(method: str, problem: Problem) -> None:
    """Validate a (method, problem) pairing against ``METHODS``."""
    _, needed, absent = method_spec(method)
    if (any(getattr(problem, t) is None for t in needed)
            or any(getattr(problem, t) is not None for t in absent)):
        rule = f"{method} needs {' and '.join(needed)}"
        raise ConfigurationError(rule + "".join(f", {t} absent" for t in absent))


def dy_fixed_point_operator(problem: Problem, lam: float, x: Element) -> Element:
    """The averaged map P whose fixed points x satisfy, with xbar = prox_f(x),
    (grad f + grad g + grad w)(xbar) = 0:

        P = I/2 + (C_g o (C_f - lam*grad_w o J_f))/2 - lam*(grad_w o J_f)/2

    where C denotes the reflection 2*J - I.  One Davis-Yin step with no
    momentum satisfies x_{k+1} = P(xhat_k).
    """
    if lam <= 0:
        raise ParameterError(f"lam must be > 0, got {lam}")
    x_q = problem.prox_f(x, lam)
    w_q = lam * problem.grad_w(x_q)
    c_f = 2.0 * x_q - x
    arg = c_f - w_q
    c_g = 2.0 * problem.prox_g(arg, lam) - arg
    return 0.5 * x + 0.5 * c_g - 0.5 * w_q


# ---------------------------------------------------------------------------
# stopping rules

StopRule = Callable[[SolverState, float], bool]


def stop_on_residual(tol: float = 1e-10) -> StopRule:
    """Stop once the per-iteration fixed-point residual drops below ``tol``."""

    def rule(state: SolverState, value: float) -> bool:
        return state.residual <= tol

    return rule


def stop_on_estimate_change(tol: float = 1e-10) -> StopRule:
    """Stop once the solution estimate moves by <= tol in relative terms.

    The rule remembers the previous estimate and forgets it at each run's
    first step (k = 1), so one rule may serve several runs.
    """
    prev: list[Element | None] = [None]

    def rule(state: SolverState, value: float) -> bool:
        last, prev[0] = (None if state.k == 1 else prev[0]), state.estimate
        if last is None:
            return False
        denom = space.norm(last)
        delta = space.norm(state.estimate - last)
        return delta <= tol * denom if denom > 0 else delta <= tol

    return rule


# ---------------------------------------------------------------------------
# run loop

@dataclass(eq=False)
class Trace:
    """Per-iteration record of a run; row 0 is the initial point.

    ``objectives`` holds the run's ``measure`` of each state, by default F
    at the solution estimate (equal to x_k for the balance-coefficient and
    forward-backward methods), NaN when the objective is unavailable.
    ``residuals`` holds each step's own fixed-point residual; row 0 is NaN
    (no step has been taken).  Row k is iteration k, so ``ks`` is 0..n-1.
    """

    objectives: np.ndarray
    residuals: np.ndarray
    times: np.ndarray
    status: str

    def __len__(self) -> int:
        return len(self.objectives)

    @property
    def ks(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64)

    @property
    def iterations(self) -> int:
        return len(self) - 1


def run(
    method: str,
    problem: Problem,
    cfg: StepConfig,
    x0: Element,
    *,
    stop: StopRule | None = None,
    max_iters: int = 10000,
    measure: Callable[[SolverState], float] | None = None,
) -> tuple[SolverState, Trace]:
    """Iterate the chosen step from ``x0`` until a stopping rule fires.

    Parameters
    ----------
    method : a key of ``METHODS``
        "dr" and "fb" validate the corresponding reduction (w or f
        absent) and then run the three-operator step.
    stop : callable (state, value) -> bool, optional
        Checked after every step with the value ``measure`` returned for
        that state; ``None`` runs the full budget.
    max_iters : int
        Step budget, must be >= 1.
    measure : callable state -> float, optional
        Evaluated once per state, the initial one included, before the
        divergence check; its values form ``trace.objectives``.  The
        default is F at the solution estimate (NaN when a term has no
        ``value``).

    Returns
    -------
    (final_state, trace) where ``trace.status`` is "converged",
    "max-iters" or "diverged" (iterate norm above 1e12 or non-finite).
    """
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    check_method(method, problem)
    step_fn = METHODS[method][0]
    if measure is None:
        def measure(state):
            val = problem.value(state.estimate)
            return math.nan if val is None else val
    state = initial_state(x0)

    values = [measure(state)]
    residuals = [math.nan]
    start = time.perf_counter()
    times = [0.0]
    status = "max-iters"

    for _ in range(max_iters):
        state = step_fn(state, problem, cfg)
        value = measure(state)
        values.append(value)
        residuals.append(state.residual)
        times.append(time.perf_counter() - start)
        xnorm = space.norm(state.x)
        if not math.isfinite(xnorm) or xnorm > DIVERGENCE_NORM:
            status = "diverged"
            break
        if stop is not None and stop(state, value):
            status = "converged"
            break

    trace = Trace(
        objectives=np.asarray(values, dtype=np.float64),
        residuals=np.asarray(residuals, dtype=np.float64),
        times=np.asarray(times, dtype=np.float64),
        status=status,
    )
    return state, trace
