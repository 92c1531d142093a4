"""Argument-validation helpers with consistent, informative error messages."""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Optional

from repro.exceptions import SnapshotError

__all__ = [
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_in_range",
    "check_finite",
    "snapshot_field",
    "snapshot_list",
    "snapshot_int",
    "snapshot_indices",
    "snapshot_float",
    "snapshot_floats",
    "snapshot_commodities",
]

#: How :mod:`repro.utils.encoding` spells the non-finite floats.
_NONFINITE_SPELLINGS = ("inf", "-inf", "nan")


def check_finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def check_nonnegative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value >= 0``; return the value."""
    check_finite(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return float(value)


def check_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value > 0``; return the value."""
    check_finite(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``0 <= value <= 1``; return the value."""
    check_finite(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def check_in_range(
    value: float,
    name: str,
    low: Optional[float] = None,
    high: Optional[float] = None,
    *,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Raise ``ValueError`` unless ``value`` lies in the given interval."""
    check_finite(value, name)
    if low is not None:
        if low_inclusive and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if not low_inclusive and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if high_inclusive and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
        if not high_inclusive and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value}")
    return float(value)


# ----------------------------------------------------------------------
# Snapshot fields: decoded JSON, checked before anything is rebuilt from it.
# ``where`` names the position and the field in the error message.
# ----------------------------------------------------------------------
def snapshot_field(mapping: Any, key: str, where: str) -> Any:
    """``mapping[key]``; a :class:`SnapshotError` unless it is an object with ``key``."""
    if not isinstance(mapping, Mapping):
        raise SnapshotError(f"{where} must be a JSON object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SnapshotError(f"{where} has no {key!r} field")
    return mapping[key]


def snapshot_list(value: Any, where: str, length: Optional[int] = None) -> List[Any]:
    """``value`` if it is a JSON list (of ``length`` items, when given)."""
    if type(value) is not list:
        raise SnapshotError(f"{where} must be a JSON list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise SnapshotError(f"{where} must have {length} items, got {len(value)}")
    return value


def snapshot_int(value: Any, where: str) -> int:
    """``value`` if it is a JSON integer; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise SnapshotError(f"{where} must be a JSON integer, got {value!r}")
    return value


def snapshot_indices(value: Any, where: str, bound: int) -> List[int]:
    """A JSON list of integers in ``[0, bound)`` (points of a metric)."""
    indices = snapshot_list(value, where)
    for position, index in enumerate(indices):
        if type(index) is not int:
            snapshot_int(index, f"{where}[{position}]")
        if not 0 <= index < bound:
            raise SnapshotError(f"{where}[{position}] must lie in [0, {bound}), got {index}")
    return indices


def snapshot_float(value: Any, where: str) -> float:
    """``value`` as a float if it is a JSON number, non-finite ones spelled as
    :mod:`repro.utils.encoding` writes them; strings and booleans are refused."""
    kind = type(value)
    if kind is not float and kind is not int and not (
        kind is str and value in _NONFINITE_SPELLINGS
    ):
        raise SnapshotError(f"{where} must be a JSON number, got {value!r}")
    return float(value)


def snapshot_floats(value: Any, where: str) -> List[float]:
    """A JSON list of numbers (see :func:`snapshot_float`)."""
    numbers = snapshot_list(value, where)
    for position, number in enumerate(numbers):
        kind = type(number)
        if kind is not float and kind is not int:
            snapshot_float(number, f"{where}[{position}]")
    return [float(number) for number in numbers]


def snapshot_commodities(value: Any, where: str) -> List[int]:
    """A JSON list of distinct integers (a commodity set)."""
    commodities = snapshot_list(value, where)
    for position, commodity in enumerate(commodities):
        snapshot_int(commodity, f"{where}[{position}]")
    if len(set(commodities)) != len(commodities):
        repeated = next(e for i, e in enumerate(commodities) if e in commodities[:i])
        raise SnapshotError(f"{where} repeats commodity {repeated}")
    return commodities
