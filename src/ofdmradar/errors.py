"""Exception types shared across the package, and the iteration-cap check of both solvers."""

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


def check_max_iters(max_iters) -> None:
    """Raise :class:`ConfigError` unless ``max_iters`` is a whole number (not a bool) >= 1."""
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral) or max_iters < 1:
        raise ConfigError(f"max_iters must be a whole number of at least 1, got {max_iters!r}")
