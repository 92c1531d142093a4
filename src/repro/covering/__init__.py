"""Covering subproblems of the paper's analysis and of the offline MFLP.

* :mod:`repro.covering.ordered_covering` implements the *c-ordered covering*
  problem of Definition 9 together with the constructive covering procedure of
  Lemmas 10–12 (total weight at most ``2 c H_n``), which is the combinatorial
  heart of the dual-feasibility proof (Lemmas 14 and 16).
* :mod:`repro.covering.set_cover` implements greedy weighted set cover (the
  offline MFLP is reducible from/to weighted set cover, Ravi & Sinha 2004),
  a substrate checked by the unit tests.  The offline greedy reference
  solver follows the same greedy ratio rule without calling it.
"""

from repro.covering.ordered_covering import (
    OrderedCoveringInstance,
    OrderedCoveringSolution,
    cover_ordered_instance,
    random_ordered_instance,
)
from repro.covering.set_cover import SetCoverInstance, greedy_set_cover

__all__ = [
    "OrderedCoveringInstance",
    "OrderedCoveringSolution",
    "cover_ordered_instance",
    "random_ordered_instance",
    "SetCoverInstance",
    "greedy_set_cover",
]
