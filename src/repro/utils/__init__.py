"""Shared low-level utilities for the OMFLP reproduction.

This subpackage intentionally has no dependency on any other ``repro``
subpackage so that it can be imported from everywhere (metrics, costs,
algorithms, experiments) without creating cycles.

Contents
--------
``repro.utils.rng``
    Deterministic random-number-generator handling (seed normalization,
    child-stream spawning) used by every randomized component.
``repro.utils.maths``
    Small numeric helpers used throughout the paper's analysis: harmonic
    numbers, ``log n / log log n``, power-of-two rounding, positive part.
``repro.utils.validation``
    Argument-validation helpers with consistent error messages.
``repro.utils.encoding``
    Strict-JSON-safe encoding of non-finite floats (``inf``, ``nan``) for
    snapshot state.
"""

from repro.utils.maths import (
    harmonic_number,
    log_over_loglog,
    positive_part,
    round_down_power_of_two,
    round_up_power_of_two,
    safe_log,
)
from repro.utils.rng import child_rngs, ensure_rng, spawn_child_seeds, spawn_seeds
from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)

__all__ = [
    "harmonic_number",
    "log_over_loglog",
    "positive_part",
    "round_down_power_of_two",
    "round_up_power_of_two",
    "safe_log",
    "ensure_rng",
    "child_rngs",
    "spawn_child_seeds",
    "spawn_seeds",
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_in_range",
]
