"""Exception types shared across the toolkit, the admissibility rule of its
numeric parameters, and the one rule of its run-loop values.

The run-loop values derive from :class:`Frozen` (immutable, printed as
``Name(field=value, ...)``, compared by identity) and, where they are
parameters rather than records of a run, from :class:`Value`, which
compares and hashes them by field: ``NoDamping``, ``Damping`` and
``StepConfig`` are values; ``Problem`` and ``SolverState`` are frozen
records; the mutable ``Trace`` borrows only the repr."""

import math


class ShapeMismatchError(ValueError):
    """Two points with different shapes were combined arithmetically."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range.

    A float parameter is admissible when it is finite and above its lower
    bound (or at it, where the bound itself is allowed); NaN and +-inf never
    are.  :func:`require` applies that rule, with the one message form
    ``<name> must be finite and > <bound>, got <value>``, so a bad value is
    refused before any work is done with it.
    """


def require(value, name: str, minimum: float = 0.0, *, strict: bool = True):
    """``value`` itself when it is finite and > ``minimum`` (>= when not
    ``strict``); ParameterError otherwise.  NaN fails every comparison."""
    if (minimum < value if strict else minimum <= value) and value < math.inf:
        return value
    raise ParameterError(f"{name} must be finite and {'>' if strict else '>='} "
                         f"{minimum:g}, got {value}")


class ConfigurationError(ValueError):
    """A solver was driven with an incompatible problem split."""


class NumericalError(RuntimeError):
    """A dense factorization or decomposition failed, or a reference
    solution missed its tolerance."""


class Frozen:
    """Base of the immutable run-loop values: ``__init__`` fills the
    instance ``__dict__`` directly, and assigning or deleting an attribute
    afterwards raises AttributeError.  pickle and copy restore the
    ``__dict__`` without calling ``__setattr__``, so both round-trip.  The
    repr is ``Name(field=value, ...)`` in field order; equality and hash
    are by identity (see :class:`Value`)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Value(Frozen):
    """A frozen value that compares and hashes by its fields: equal to an
    instance of the same class with equal fields, never to another class."""

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))
