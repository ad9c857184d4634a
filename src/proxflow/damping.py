"""Momentum schedules: the coefficient gamma_k and the extrapolated point.

Every accelerated solver forms the extrapolation

    xhat_k = x_k + gamma_k * (x_k - x_{k-1})

where gamma_k discretizes a damping coefficient eta(t) of the underlying
second-order flow:

* decaying damping eta(t) = r/t    ->  gamma_k = k / (k + r)
* constant damping eta(t) = r      ->  gamma_k = 1 - r*h
* combined damping eta(t) = r1/t + r2  ->  gamma_k = k/(k+r1) - r2*h

In each case gamma_k = 1 - eta(t_k)*h + O(h^2) with t_k = k*h, which is
what makes the accelerated steps consistent discretizations.  Every
schedule reports both: ``gamma(k, h)`` for the solvers and ``eta(t)`` for
the flows, with ``accelerated`` false only for :class:`NoDamping`.  Negative
momentum (r*h > 1 for constant damping, and the analogous combined-case
overshoot) is clamped to zero with a warning.
"""

from __future__ import annotations

import warnings
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
class DecayingDamping:
    """Damping r/t decaying in time; requires r >= 3."""

    accelerated = True
    r: float = 3.0

    def __post_init__(self):
        if self.r < 3:
            raise ParameterError(f"decaying damping requires r >= 3, got {self.r}")

    def gamma(self, k: int, h: float) -> float:
        return k / (k + self.r)

    def eta(self, t: float) -> float:
        return self.r / _positive_time(t)


@dataclass(frozen=True)
class ConstantDamping:
    """Constant damping r > 0 (heavy-ball style momentum)."""

    accelerated = True
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ParameterError(f"constant damping requires r > 0, got {self.r}")

    def gamma(self, k: int, h: float) -> float:
        g = 1.0 - self.r * h
        if g < 0.0:
            warnings.warn(
                f"constant damping with r*h = {self.r * h:.3g} > 1 would give "
                "negative momentum; clamping gamma to 0",
                stacklevel=2,
            )
            return 0.0
        return g

    def eta(self, t: float) -> float:
        return self.r


@dataclass(frozen=True)
class CombinedDamping:
    """Damping r1/t + r2 mixing the decaying and constant regimes."""

    accelerated = True
    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 <= 0 or self.r2 <= 0:
            raise ParameterError(
                f"combined damping requires r1 > 0 and r2 > 0, got ({self.r1}, {self.r2})"
            )

    def gamma(self, k: int, h: float) -> float:
        # Same negative-momentum clamp as the constant schedule (bites at small k).
        return max(k / (k + self.r1) - self.r2 * h, 0.0)

    def eta(self, t: float) -> float:
        return self.r1 / _positive_time(t) + self.r2


def _positive_time(t: float) -> float:
    if t <= 0:
        raise ParameterError(f"damping r/t is singular at t = {t}; need t > 0")
    return t


Schedule = Union[NoDamping, DecayingDamping, ConstantDamping, CombinedDamping]


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
