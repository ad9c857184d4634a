"""Exception types shared across the toolkit, the admissibility rule of its
numeric parameters, and the rule of its frozen values."""

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
    ``__dict__`` without calling ``__setattr__``, so both round-trip."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
