"""Momentum schedules: the coefficient gamma_k and the extrapolated point.

Every accelerated solver forms the extrapolation

    xhat_k = x_k + gamma_k * (x_k - x_{k-1})

where gamma_k discretizes the damping eta(t) of the underlying
second-order flow.  There is one damping law, :class:`Damping`:

    eta(t) = r1/t + r2    ->    gamma_k = max(k/(k+r1) - r2*h, 0)

with t_k = k*h, so gamma_k = 1 - eta(t_k)*h + O(h^2), which is what makes
the accelerated steps consistent discretizations.  The paper's three
regimes are its cases, each built by a named constructor:

* decaying damping eta(t) = r/t       (r1 = r >= 3, r2 = 0)  ->  k/(k+r)
* constant damping eta(t) = r         (r1 = 0, r2 = r > 0)   ->  1 - r*h
* combined damping eta(t) = r1/t + r2 (r1, r2 > 0)

Every schedule reports both: ``gamma(k, h)`` for the solvers and
``eta(t)`` for the flows, with ``accelerated`` false only for
:class:`NoDamping`.  ``r2*h > 1`` would clamp every k, so ``StepConfig``
rejects it; ``r2*h == 1`` zeroes every k too but stays accepted, as it was
before the check.  Below that the clamp bites only the combined law at
small k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ParameterError
from .space import Element, check_same_shape


@dataclass(frozen=True)
class NoDamping:
    """No acceleration: gamma_k = 0 for all k."""

    accelerated = False

    def gamma(self, k: int, h: float) -> float:
        return 0.0

    def eta(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class Damping:
    """Damping eta(t) = r1/t + r2; a zero r1 or r2 drops its term.  With
    r2 = 0 it is the decaying regime, which requires r1 >= 3."""

    accelerated = True
    r1: float = 0.0
    r2: float = 0.0

    def __post_init__(self):
        if not self.r2 and self.r1 < 3:
            raise ParameterError(f"decaying damping requires r >= 3, got {self.r1}"
                                 " (NoDamping() is no momentum)")
        if self.r1 < 0 or self.r2 < 0:
            raise ParameterError(f"damping requires r1, r2 >= 0, got ({self.r1}, {self.r2})")

    def gamma(self, k: int, h: float) -> float:
        return max((k / (k + self.r1) if self.r1 else 1.0) - self.r2 * h, 0.0)

    def eta(self, t: float) -> float:
        if self.r1 and t <= 0:
            raise ParameterError(f"damping r1/t is singular at t = {t}; need t > 0")
        return (self.r1 / t if self.r1 else 0.0) + self.r2


def DecayingDamping(r: float = 3.0) -> Damping:
    """Damping r/t decaying in time; requires r >= 3."""
    return Damping(r1=r)


def ConstantDamping(r: float) -> Damping:
    """Constant damping r > 0 (heavy-ball style momentum)."""
    if r <= 0:
        raise ParameterError(f"constant damping requires r > 0, got {r}")
    return Damping(r2=r)


def CombinedDamping(r1: float, r2: float) -> Damping:
    """Damping r1/t + r2 mixing the decaying and constant regimes."""
    if r1 <= 0 or r2 <= 0:
        raise ParameterError(f"combined damping requires r1 > 0 and r2 > 0, got ({r1}, {r2})")
    return Damping(r1, r2)


Schedule = Union[NoDamping, Damping]


def schedule_for(name: str, r: float | None = None, r1: float | None = None,
                 r2: float | None = None) -> Schedule:
    """The schedule a damping name selects: "none", "decaying" (r, default
    3), "constant" (r) or "combined" (r1 and r2)."""
    if name == "none":
        return NoDamping()
    if name == "decaying":
        return DecayingDamping(3.0 if r is None else r)
    if name == "constant":
        if r is None:
            raise ParameterError("constant damping requires r")
        return ConstantDamping(r)
    if name == "combined":
        if r1 is None or r2 is None:
            raise ParameterError("combined damping requires r1 and r2")
        return CombinedDamping(r1, r2)
    raise ParameterError(f"unknown damping {name!r}")


def gamma(schedule: Schedule, k: int, h: float) -> float:
    """Momentum coefficient at iteration ``k`` for step scale ``h``."""
    if k < 0:
        raise ParameterError(f"iteration index must be >= 0, got {k}")
    if h <= 0:
        raise ParameterError(f"step scale h must be > 0, got {h}")
    return schedule.gamma(k, h)


def extrapolate(x: Element, x_prev: Element, g: float) -> Element:
    """Return ``x + g*(x - x_prev)``; returns ``x`` itself when ``g == 0``."""
    check_same_shape(x, x_prev)
    if g == 0.0:
        return x
    return x + g * (x - x_prev)
