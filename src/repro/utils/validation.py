"""Argument-validation helpers.

These raise the library's exception types with actionable messages; hot paths
call them once per *batch*, never per element, so the cost is negligible
(guide: vectorize, validate at the boundary).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.constants import KEY_DTYPE, KEY_MAX, MIN_FANOUT, VALUE_DTYPE
from repro.errors import ConfigError, InvalidKeyError


def ensure_positive(name: str, value: Any) -> int:
    """Validate that ``value`` is a positive integer and return it as int."""
    try:
        ivalue = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if ivalue <= 0:
        raise ConfigError(f"{name} must be positive, got {ivalue}")
    return ivalue


def ensure_power_of_two(name: str, value: Any) -> int:
    """Validate that ``value`` is a positive power of two."""
    ivalue = ensure_positive(name, value)
    if ivalue & (ivalue - 1):
        raise ConfigError(f"{name} must be a power of two, got {ivalue}")
    return ivalue


def ensure_fanout(fanout: Any) -> int:
    """Validate a B+tree branching factor."""
    f = ensure_positive("fanout", fanout)
    if f < MIN_FANOUT:
        raise ConfigError(f"fanout must be >= {MIN_FANOUT}, got {f}")
    return f


def ensure_fill(fill: Any) -> float:
    """Validate a leaf fill target in ``(0, 1]``."""
    if not 0.0 < fill <= 1.0:
        raise ConfigError(f"fill must be in (0, 1], got {fill}")
    return float(fill)


def ensure_scalar_key(key: Any) -> int:
    """Validate a single key: integral, representable, not the sentinel."""
    try:
        ikey = int(key)
    except (TypeError, ValueError) as exc:
        raise InvalidKeyError(f"key must be an integer, got {key!r}") from exc
    info = np.iinfo(KEY_DTYPE)
    if not (info.min <= ikey <= info.max):
        raise InvalidKeyError(f"key {ikey} outside int64 range")
    if ikey == KEY_MAX:
        raise InvalidKeyError(
            f"key {ikey} is reserved as the padding sentinel and cannot be stored"
        )
    return ikey


_VALUE_INFO = np.iinfo(VALUE_DTYPE)


def ensure_scalar_value(value: Any) -> int:
    """Validate a single stored value: an integer (not a float or a
    string) that fits the value dtype."""
    if not (isinstance(value, (int, np.integer))
            and _VALUE_INFO.min <= value <= _VALUE_INFO.max):
        raise ConfigError(f"value must be an integer that fits "
                          f"{_VALUE_INFO.dtype}, got {value!r}")
    return int(value)


def ensure_int_array(values: Any, dtype: Any, name: str) -> np.ndarray:
    """Coerce ``values`` to a contiguous 1-D array of the integer
    ``dtype``.  Input that is not integral, or that falls outside the
    dtype's range, is refused rather than truncated or wrapped.  Returns
    a view when the input already has the dtype."""
    raw = np.asarray(values)
    if raw.ndim == 1 and raw.size == 0:
        return np.empty(0, dtype=dtype)
    if raw.ndim != 1 or raw.dtype.kind not in "iu":
        raise ConfigError(f"{name} must be a 1-D integer array, got "
                          f"{raw.dtype} of shape {raw.shape}")
    if not np.can_cast(raw.dtype, dtype):
        info = np.iinfo(dtype)
        if raw.min() < info.min or raw.max() > info.max:
            raise ConfigError(f"{name} must fit {info.dtype}")
    return np.ascontiguousarray(raw, dtype=dtype)


def ensure_key_array(keys: Any, name: str = "keys") -> np.ndarray:
    """Coerce ``keys`` to a contiguous 1-D int64 array and reject sentinels.

    Returns a *view* when the input already has the right dtype/layout so hot
    callers pay nothing (guide: use views, not copies).
    """
    arr = np.ascontiguousarray(keys, dtype=KEY_DTYPE)
    if arr.ndim != 1:
        raise InvalidKeyError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size and arr.max(initial=np.iinfo(KEY_DTYPE).min) == KEY_MAX:
        raise InvalidKeyError(
            f"{name} contains the reserved sentinel value {KEY_MAX}"
        )
    return arr


def ensure_sorted_unique(keys: np.ndarray, name: str = "keys") -> np.ndarray:
    """Validate that ``keys`` is strictly increasing (sorted, duplicate-free)."""
    arr = ensure_key_array(keys, name)
    if arr.size > 1 and not bool(np.all(arr[1:] > arr[:-1])):
        raise InvalidKeyError(f"{name} must be strictly increasing")
    return arr


def ensure_block(keys: Any, values: Any = None):
    """Validate one sorted block: strictly increasing keys without the
    sentinel, and values aligned with them that fit the value dtype
    (``None``: each key is its own value).  Returns ``(keys, values)``
    as contiguous arrays, either of which may be a view of the input."""
    karr = ensure_sorted_unique(np.asarray(keys))
    if values is None:
        return karr, karr.astype(VALUE_DTYPE)
    varr = ensure_int_array(values, VALUE_DTYPE, "values")
    if varr.shape != karr.shape:
        raise ConfigError("values must align with keys")
    return karr, varr


__all__ = [
    "ensure_positive",
    "ensure_power_of_two",
    "ensure_fanout",
    "ensure_fill",
    "ensure_scalar_key",
    "ensure_scalar_value",
    "ensure_int_array",
    "ensure_key_array",
    "ensure_sorted_unique",
    "ensure_block",
]
