"""Shared validation helpers and error types."""

from __future__ import annotations

import numpy as np

__all__ = ["ConfigError", "NumericalError", "as_vector", "json_object"]


class ConfigError(ValueError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Numerical failure such as a covariance factorization that does not
    succeed even after ridge regularization (CLI exit code 3)."""


def as_vector(x, d: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` (array-like or an object with a ``z`` attribute) to a
    1-D float64 array, optionally checking its length.

    Args:
      x: array-like of shape (d,), or a target-point object exposing ``.z``.
      d: expected length, checked when given.
      name: label used in error messages.

    Returns:
      A 1-D float64 ndarray.

    Raises:
      ValueError: if ``x`` is not 1-D or has the wrong length.
    """
    if hasattr(x, "z"):
        x = x.z
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"dimension mismatch: {name} has length {v.shape[0]}, expected {d}")
    return v


def json_object(value, key: str) -> dict:
    """``value`` if it is a dict, the form a JSON object is parsed to;
    otherwise a ConfigError that names the config ``key``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value
