"""Numeric helpers mirroring quantities used in the paper's analysis.

The paper's bounds are phrased in terms of the harmonic number ``H_n``
(Theorem 4 uses the scaling factor ``gamma = 1 / (5 sqrt(|S|) H_n)``), the
function ``log n / log log n`` (Fotakis' tight bound for online facility
location, used in Theorems 2, 18 and 19) and powers of two (the facility cost
classes of the randomized algorithm in Section 4).  This module centralizes
those small computations so that algorithms, lower bounds and experiments all
agree on the exact same definitions.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "harmonic_number",
    "log_over_loglog",
    "positive_part",
    "round_down_power_of_two",
    "round_up_power_of_two",
    "safe_log",
    "ceil_div",
    "geometric_levels",
    "logspace_int",
]


def harmonic_number(n: int) -> float:
    """Return the n-th harmonic number ``H_n = sum_{k=1}^{n} 1/k``.

    ``H_0`` is defined as ``0``.  For large ``n`` the asymptotic expansion
    ``ln n + gamma + 1/(2n) - 1/(12 n^2)`` is used, which is accurate to far
    below double-precision rounding error for ``n >= 64``.

    Parameters
    ----------
    n:
        Number of terms; must be a non-negative integer.
    """
    if n < 0:
        raise ValueError(f"harmonic_number requires n >= 0, got {n}")
    if n == 0:
        return 0.0
    if n < 64:
        return float(sum(1.0 / k for k in range(1, n + 1)))
    euler_gamma = 0.5772156649015328606
    n_f = float(n)
    return math.log(n_f) + euler_gamma + 1.0 / (2.0 * n_f) - 1.0 / (12.0 * n_f * n_f)


def safe_log(x: float, base: float = math.e) -> float:
    """Logarithm that returns ``0.0`` for arguments ``<= 1``.

    Competitive-ratio bounds such as ``O(sqrt(|S|) log n)`` are only
    meaningful for ``n >= 2``; clamping at zero keeps plots and fitted
    exponents well defined for degenerate corner cases (``n in {0, 1}``).
    """
    if x <= 1.0:
        return 0.0
    return math.log(x) / math.log(base)


def log_over_loglog(n: float) -> float:
    """Return ``log n / log log n`` with the conventions of the paper.

    This is the tight competitive ratio of online facility location
    (Fotakis 2008) and appears additively in the paper's lower bound
    (Corollary 3) and multiplicatively in Theorem 19.  For ``n`` small enough
    that ``log log n <= 1`` the function returns ``max(log n, 1)`` so that it
    is monotone, positive and finite on all inputs ``>= 1``.
    """
    if n <= 1.0:
        return 1.0
    ln = math.log(n)
    lln = math.log(ln) if ln > 1.0 else 0.0
    if lln <= 1.0:
        return max(ln, 1.0)
    return ln / lln


def positive_part(x):
    """Return ``max(x, 0)`` elementwise (the paper's ``(a)_+`` notation).

    Works on scalars and numpy arrays alike and never copies needlessly: for
    arrays, ``np.maximum`` allocates a single output buffer.
    """
    if isinstance(x, np.ndarray):
        return np.maximum(x, 0.0)
    return x if x > 0 else 0.0 * x


def _power_of_two_split(value) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(costs, mantissas, exponents)`` with ``costs == mantissas * 2**exponents``.

    ``np.frexp`` splits a finite float exactly, with the mantissa in
    ``[0.5, 1)`` (``(0, 0)`` for zero); a logarithm would round, and at the
    neighbours of a power of two land on the wrong exponent.
    """
    costs = np.asarray(value, dtype=np.float64)
    valid = np.isfinite(costs) & (costs >= 0)
    if not valid.all():
        raise ValueError(
            f"facility costs must be finite and non-negative, got {costs[~valid][0]}"
        )
    mantissas, exponents = np.frexp(costs)
    return costs, mantissas, exponents


def round_down_power_of_two(value):
    """Round ``value`` down to the nearest power of two, exactly.

    Used by :mod:`repro.costs.classes` to build the facility cost classes of
    RAND-OMFLP (Section 4.1: "rounded down to the nearest power of 2").
    Values in ``(0, 1]`` round down to negative powers of two; zero maps to
    zero; negative and non-finite values are rejected because facility costs
    are non-negative reals.  The result is the largest power of two ``p``
    with ``p <= value``, so ``p <= value < 2 * p`` holds without slack.

    Accepts a scalar (returns a ``float``) or an array of costs (returns a
    ``float64`` array of the same shape, rounded elementwise).
    """
    costs, _, exponents = _power_of_two_split(value)
    rounded = np.where(costs > 0.0, np.ldexp(0.5, exponents), 0.0)
    return float(rounded) if costs.ndim == 0 else rounded


def round_up_power_of_two(value):
    """Round ``value`` up to the nearest power of two, exactly.

    The smallest power of two ``p`` with ``value <= p`` (zero maps to zero);
    scalars and arrays are accepted as by :func:`round_down_power_of_two`.
    """
    costs, mantissas, exponents = _power_of_two_split(value)
    # Mantissa 0.5 is a power of two already, mantissa 0 is zero: both stay.
    rounded = np.where(mantissas > 0.5, np.ldexp(1.0, exponents), costs)
    return float(rounded) if costs.ndim == 0 else rounded


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires a positive divisor, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div requires a non-negative dividend, got {a}")
    return -(-a // b)


def geometric_levels(smallest: float, largest: float, factor: float = 2.0) -> np.ndarray:
    """Return the geometric grid ``smallest, smallest*factor, ...`` covering ``largest``.

    Helper for cost-class construction and for distance-scale sweeps in the
    experiments.  The returned array always contains at least one element and
    its last element is ``>= largest`` (within floating-point tolerance).
    """
    if smallest <= 0:
        raise ValueError(f"geometric_levels requires smallest > 0, got {smallest}")
    if largest < smallest:
        raise ValueError(
            f"geometric_levels requires largest >= smallest, got {smallest} > {largest}"
        )
    if factor <= 1.0:
        raise ValueError(f"geometric_levels requires factor > 1, got {factor}")
    count = int(math.ceil(math.log(largest / smallest, factor))) + 1
    return smallest * np.power(factor, np.arange(max(count, 1), dtype=np.float64))


def logspace_int(low: int, high: int, count: int) -> list[int]:
    """Return ``count`` roughly log-spaced distinct integers in ``[low, high]``.

    Experiment sweeps over ``n`` (number of requests) and ``|S|`` (number of
    commodities) use this to probe growth rates without a dense grid.
    """
    if low < 1 or high < low:
        raise ValueError(f"logspace_int requires 1 <= low <= high, got {low}, {high}")
    if count < 1:
        raise ValueError(f"logspace_int requires count >= 1, got {count}")
    if count == 1:
        return [high]
    values = np.unique(
        np.round(np.exp(np.linspace(math.log(low), math.log(high), count))).astype(int)
    )
    return [int(v) for v in values]
