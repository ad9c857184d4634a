"""Exception types shared across the toolkit, and the rule of its frozen values."""


class ShapeMismatchError(ValueError):
    """Two points with different shapes were combined arithmetically."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


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
