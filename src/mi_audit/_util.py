"""Shared validation helpers and error types."""

from __future__ import annotations

import numpy as np

__all__ = ["ConfigError", "NumericalError", "as_vector", "as_target", "check_rate",
           "config_value", "config_checked"]


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


def as_target(x, d: int, name: str = "z") -> np.ndarray:
    """``as_vector(x, d, name)``, checked finite: a NaN or infinite target
    coordinate would make every score and leakage value NaN.

    Raises:
      ValueError: if ``x`` has the wrong shape, or a coordinate that is not
        finite, named with its index.
    """
    v = as_vector(x, d, name)
    if not np.isfinite(v).all():
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"{name} coordinates must be finite, got {v[i]} at {i}")
    return v


def check_rate(rho, name: str) -> None:
    """The one bound 0 < rho <= 1, written so that NaN fails it. ``name``
    says which rate it is, such as "subsampling rate" or "inclusion
    probability"."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {rho}")


_REQUIRED = object()
_KINDS = {dict: "a JSON object", list: "a JSON list", bool: "true or false",
          int: "an integer", float: "a number", str: "a string"}


def config_value(obj, key, kind: type, default=_REQUIRED, where: str = ""):
    """The value of ``obj[key]`` from a parsed JSON config, as ``kind``.

    ``obj`` is a JSON object, or a JSON list that ``key`` indexes. ``dict``,
    ``list`` and ``bool`` values must be that JSON type, and ``object``
    takes any value for the caller to check; ``int``, ``float`` and ``str``
    convert a JSON number or string as those builtins do, so ``"0.5"``
    reads as 0.5. A missing key gives ``default``, and so does null when
    ``default`` is None; a missing key with no default is a ConfigError.
    Any other value is a ConfigError that names the dotted key
    ``where.key``.
    """
    name = f"{where}.{key}" if where else str(key)
    try:
        value = obj[key]
    except KeyError:
        if default is _REQUIRED:
            raise ConfigError(f"config missing key {name!r}") from None
        return default
    if value is None and default is None:
        return None
    if kind in (dict, list, bool, object):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, (bool, dict, list, type(None))):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    null = " or null" if default is None else ""
    raise ConfigError(f"{name} must be {_KINDS[kind]}{null}, got {value!r}")


def config_checked(check, obj, key, kind: type, where: str = ""):
    """``check(config_value(obj, key, kind, where=where))``, for a value that
    ``check`` validates further: a TypeError or ValueError it raises becomes
    a ConfigError that names the dotted key ``where.key``."""
    value = config_value(obj, key, kind, where=where)
    try:
        return check(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}.{key}: {e}") from e
