"""Lightweight argument validation helpers.

These helpers raise :class:`repro.errors.ConfigurationError` with a message
that names the offending parameter, which keeps the constructors of the
configuration dataclasses short and their error messages consistent.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_between",
    "require_in",
    "require_power_of_two",
    "require_vector",
    "require_matrix",
    "require_spec_numbers",
    "is_finite_real",
]


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is strictly positive, else raise."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Return ``value`` if it is >= 0, else raise."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_between(name: str, value: float, low: float, high: float) -> float:
    """Return ``value`` if ``low <= value <= high``, else raise."""
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def require_in(name: str, value: object, allowed: Iterable[object]) -> object:
    """Return ``value`` if it is one of ``allowed``, else raise."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ConfigurationError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def require_power_of_two(name: str, value: int) -> int:
    """Return ``value`` if it is a positive power of two, else raise."""
    value = int(value)
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{name} must be a power of two, got {value!r}")
    return value


def require_vector(name: str, array: np.ndarray) -> np.ndarray:
    """Return ``array`` as a 1-D float array, raising on wrong dimensionality."""
    array = np.asarray(array)
    if array.ndim != 1:
        raise ConfigurationError(f"{name} must be a 1-D vector, got shape {array.shape}")
    return array


def require_matrix(name: str, array: np.ndarray) -> np.ndarray:
    """Return ``array`` as a 2-D array, raising on wrong dimensionality."""
    array = np.asarray(array)
    if array.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-D matrix, got shape {array.shape}")
    return array


def require_spec_numbers(scale: object, **integers: object) -> None:
    """Check a spec's optional ``scale`` and integer fields (``None`` passes).

    ``scale`` must be a finite real number > 0 and every keyword an integer;
    booleans are rejected for both, although Python counts them as numbers.
    """
    for name, value in integers.items():
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if scale is not None and not (is_finite_real(scale) and scale > 0):
        raise ConfigurationError(f"scale must be a finite number > 0, got {scale!r}")


def is_finite_real(value: object) -> bool:
    """Whether ``value`` is a finite real number (any integer is); no bool is."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and math.isfinite(value))
    )
