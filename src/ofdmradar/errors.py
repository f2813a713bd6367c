"""Exception types shared across the package, and the whole-number check of config fields."""

import numbers


class ConfigError(ValueError):
    """Invalid configuration or out-of-domain input."""


class NumericError(ArithmeticError):
    """Numerical failure (non-finite iterates, factorization breakdown, divergence)."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class DegenerateDictionaryError(NumericError):
    """Least-squares dictionary is rank deficient beyond tolerance."""

    def __init__(self, message, pairs=None):
        super().__init__(message)
        self.pairs = list(pairs) if pairs else []


def check_whole_number(name: str, value, least: int | None = 1) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is a whole number.

    Booleans are rejected and numpy integers accepted; ``least``, unless None,
    is the smallest value allowed.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        bound = "" if least is None else f" of at least {least}"
        raise ConfigError(f"{name} must be a whole number{bound}, got {value!r}")
