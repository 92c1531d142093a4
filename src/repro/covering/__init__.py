"""The covering subproblem of the paper's analysis.

:mod:`repro.covering.ordered_covering` implements the *c-ordered covering*
problem of Definition 9 together with the constructive covering procedure of
Lemmas 10–12 (total weight at most ``2 c H_n``), which is the combinatorial
heart of the dual-feasibility proof (Lemmas 14 and 16).
"""

from repro.covering.ordered_covering import (
    OrderedCoveringInstance,
    OrderedCoveringSolution,
    cover_ordered_instance,
    random_ordered_instance,
)

__all__ = [
    "OrderedCoveringInstance",
    "OrderedCoveringSolution",
    "cover_ordered_instance",
    "random_ordered_instance",
]
