"""The degenerate one-point metric space.

Theorem 2 of the paper proves the Ω(√|S|) lower bound "even on a single
point"; the adversary of :mod:`repro.lowerbound.single_point` runs on this
space, where all connection costs vanish and only facility-construction
decisions matter.
"""

from __future__ import annotations

from repro.metric.matrix import ExplicitMetric

__all__ = ["SinglePointMetric"]


class SinglePointMetric(ExplicitMetric):
    """A metric space with exactly one point: the 1 x 1 zero matrix."""

    def __init__(self) -> None:
        super().__init__([[0.0]])
