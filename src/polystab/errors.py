"""Typed errors shared across the toolkit.

Every dimension/domain violation raises a structured exception; nothing is
silently clamped or coerced.
"""

import math

import numpy as np


class PolystabError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(PolystabError):
    """A vector/matrix does not conform to the owning system."""

    def __init__(self, what: str, expected: int, actual: int):
        self.what = what
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected length {expected}, got {actual}")


class DomainError(PolystabError):
    """An argument lies outside its mathematical domain."""


class NonFiniteStateError(PolystabError):
    """A state contains NaN or Inf entries (constructed or propagated)."""


class ConfigError(PolystabError):
    """An experiment configuration is malformed or inconsistent."""


class DiagnosticFailure(PolystabError):
    """A numerical diagnostic (energy identity, contraction bound) failed."""


def check_int(name: str, value, low: int = 1, error: type = DomainError) -> None:
    """Raise ``error`` unless ``value`` is an integer of at least ``low``
    (0 or 1; a bool or a float is none)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        what = "positive" if low else "non-negative"
        raise error(f"{name} must be a {what} integer; got {value!r}")


def check_finite(name: str, value) -> None:
    """Raise DomainError unless ``value`` is a finite number."""
    if not -math.inf < value < math.inf:
        raise DomainError(f"{name} must be finite; got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise DomainError unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite; got {value!r}")


def finite_array(name: str, x, dtype=None) -> np.ndarray:
    """``x`` as an array, refused (DomainError) unless every entry is finite."""
    x = np.asarray(x, dtype=dtype)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise DomainError(f"{name} must be finite; got {bad[0].item()!r}")
    return x
