"""Exception types shared across the toolkit."""


class ShapeMismatchError(ValueError):
    """Two points with different shapes were combined arithmetically."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class ConfigurationError(ValueError):
    """A solver was driven with an incompatible problem split."""


class NumericalError(RuntimeError):
    """A dense factorization or decomposition failed, or a reference
    solution missed its tolerance."""
