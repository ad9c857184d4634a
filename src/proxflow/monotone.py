"""Resolvent calculus for set-valued monotone terms.

A maximal monotone operator A is represented here purely through its
resolvent J_{lam*A} = (I + lam*A)^{-1}, exposed with the same
``prox(v, lam)`` interface the proximal oracles implement (the resolvent
of a maximal monotone operator is single-valued, so this representation
loses nothing, and it is the only access any splitting step needs).

The mu-regularization (Yosida approximation) of A,

    A_mu = (I - J_{mu*A}) / mu,

is single-valued, (1/mu)-Lipschitz, and has the same zeros as A.  Its
resolvent has the closed form

    J_{lam*A_mu} = (mu*I + lam*J_{(mu+lam)*A}) / (mu + lam),

implemented by :func:`resolvent_of_yosida`; mu = 0 is admitted as an
exact input and returns J_{lam*A} itself.  ``step_dy_regularized`` is
:func:`proxflow.solvers.step_davis_yin` on a problem whose two resolvent
terms are these regularized resolvents, so at mu = 0 it is the
three-operator step itself, bit for bit.

The smooth-case second-order accuracy of one step does not carry over to
genuinely set-valued terms: only an o(lam) one-step agreement with the
underlying dynamics is available there, so order-of-accuracy claims in
the lab are made for smooth instances only.
"""

from __future__ import annotations

from .errors import require
from .solvers import Problem, SolverState, StepConfig, step_davis_yin
from .space import Element


def resolvent_of_yosida(A, lam: float, mu: float, x: Element) -> Element:
    """Resolvent of the mu-regularization of A; exact J_{lam*A} at mu = 0."""
    require(lam, "lam")
    require(mu, "mu", strict=False)
    if A is None:
        return x
    if mu == 0.0:
        return A.prox(x, lam)
    return (mu * x + lam * A.prox(x, mu + lam)) / (mu + lam)


class _YosidaResolvent:
    """Prox oracle of the mu-regularization of A (None: the zero operator)."""

    def __init__(self, A, mu: float):
        self.A = A
        self.mu = mu

    def prox(self, v: Element, lam: float) -> Element:
        return resolvent_of_yosida(self.A, lam, self.mu, v)


def step_dy_regularized(state: SolverState, A, B, C, lam: float, mu: float) -> SolverState:
    """One undamped three-operator step on the mu-regularized inclusion 0 in (A+B+C)x.

    A and B enter through :func:`resolvent_of_yosida` (None means the
    zero operator), C is a single-valued term with a ``grad`` method
    (None means zero).
    """
    problem = Problem(f=_YosidaResolvent(A, mu), g=_YosidaResolvent(B, mu), w=C)
    return step_davis_yin(state, problem, StepConfig(lam=lam))
