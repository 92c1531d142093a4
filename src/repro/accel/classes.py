"""Cached per-class distance columns for power-of-two cost classes.

The Meyerson-family algorithms (Meyerson OFL, RAND-OMFLP, the per-commodity
Meyerson baseline) evaluate, for *every* arriving request, the distances
``d(C_i, r)`` to the nearest point of every facility cost class ``i`` plus the
derived "cheapest opening option" ``min_i (C_i + d(C_i, r))``.  The reference
helpers rescan the class point sets per class per request — O(classes x n)
per request, with one metric-row gather per class.

:class:`ClassDistanceIndex` computes, on the *first* query from a point, the
whole distance column ``(d(C_1, r), ..., d(C_k, r))`` from a single metric
row: the row is gathered once in class-major point order, reduced to
per-class minima with one ``np.minimum.reduceat`` pass, and turned into the
cumulative-class convention with ``np.minimum.accumulate``.  The column is
memoized as an immutable tuple of the floats that pass produced (facility
costs are static, so it never changes).  Repeat queries are O(1) and the
total work is O(n) per distinct query point, instead of O(classes x n) per
request.  The per-request consumers (Meyerson's coin loop, the
opening-option scan) walk columns of one to a few classes, where plain float
arithmetic beats a NumPy call.  No O(n^2) precomputation and no pairwise
matrix are ever needed.

The *nearest point* of a class is needed only when a coin flip succeeds or a
feasibility fallback fires — a handful of times per run, rarely twice for the
same class and point — so it is not memoized: each call runs exactly the
reference's scan (``metric.nearest`` over the caller's cumulative point
array, in the caller's order).  This keeps tie-breaking trivially
bit-identical: different callers enumerate their cumulative sets in
different orders (ascending point index for the Meyerson helper,
class-concatenation for :class:`~repro.costs.classes.CostClassIndex`) and
``np.argmin`` resolves equal distances by that order.

Bit-identicality of the columns holds because every entry is a minimum over
exactly the floats the reference reads (entries of ``distances_from(r)``),
and a minimum is order-independent.  ``cheapest_open_option`` scans the
``(C_i, d(C_i, r))`` pairs in ascending class order and moves only on a
strict ``<``, so it keeps the first class attaining the minimum, as the
reference's scan does.

The index holds no run-dependent state — its columns are memoized pure
functions of the static metric and cost classes — so the session snapshot
codec (:mod:`repro.service.snapshot`) never serializes it; a restored
session simply refills the columns on demand with identical values.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.costs.classes import CostClassIndex, class_position
from repro.exceptions import AlgorithmError
from repro.metric.base import MetricSpace

__all__ = ["ClassDistanceIndex"]


class ClassDistanceIndex:
    """Memoized ``d(·, C_i)`` columns under the cumulative class convention.

    Each column is a tuple of floats, filled on the first query from its
    point.  Class indexes are 1-based; an index outside ``[1, k]`` raises
    :class:`~repro.exceptions.InvalidCostFunctionError`, as
    :class:`~repro.costs.classes.CostClassIndex` does.

    Parameters
    ----------
    metric:
        The underlying metric space.
    class_values:
        The rounded (power-of-two) cost values ``C_1 < C_2 < ... < C_k``.
    exact_point_sets:
        For each class, the point indices whose rounded cost equals that
        class value exactly (order irrelevant — only minima are taken).
    cumulative_point_sets:
        For each class, the points of rounded cost at most that class value,
        **in the caller's reference enumeration order** — used verbatim for
        the nearest-point scans so ties break exactly as in the caller's
        reference path.
    """

    def __init__(
        self,
        metric: MetricSpace,
        class_values: Sequence[float],
        exact_point_sets: Sequence[Sequence[int]],
        cumulative_point_sets: Sequence[Sequence[int]],
    ) -> None:
        if not class_values or not (
            len(class_values) == len(exact_point_sets) == len(cumulative_point_sets)
        ):
            raise AlgorithmError(
                "class_values, exact_point_sets and cumulative_point_sets must be "
                "equally long and non-empty"
            )
        self._metric = metric
        self._values: Tuple[float, ...] = tuple(float(value) for value in class_values)
        self._cumulative: List[np.ndarray] = [
            np.asarray(points, dtype=np.intp) for points in cumulative_point_sets
        ]
        sets = [np.asarray(points, dtype=np.intp) for points in exact_point_sets]
        if any(points.size == 0 for points in sets):
            raise AlgorithmError("every cost class must contain at least one point")
        # Class-major point order plus segment offsets for one reduceat pass.
        self._order = np.concatenate(sets)
        self._offsets = np.concatenate(
            ([0], np.cumsum([points.size for points in sets])[:-1])
        )
        self._columns: Dict[int, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_cost_index(cls, metric: MetricSpace, index: CostClassIndex) -> "ClassDistanceIndex":
        """Build the index for an existing :class:`CostClassIndex`."""
        return cls(
            metric,
            [c.value for c in index.classes],
            [c.points for c in index.classes],
            [c.cumulative_points for c in index.classes],
        )

    # ------------------------------------------------------------------
    def distances(self, point: int) -> Tuple[float, ...]:
        """``(d(C_1, point), ..., d(C_k, point))`` — computed once per point."""
        column = self._columns.get(point)
        if column is None:
            row = np.asarray(self._metric.distances_from(point), dtype=np.float64)
            per_class = np.minimum.reduceat(row[self._order], self._offsets)
            column = tuple(np.minimum.accumulate(per_class).tolist())
            self._columns[point] = column
        return column

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return len(self._values)

    def class_value(self, index: int) -> float:
        """``C_i`` for the 1-based class index."""
        return self._values[class_position(index, len(self._values))]

    def distance_to_class(self, index: int, point: int) -> float:
        """``d(C_i, point)`` for the 1-based class index (O(1) after first query)."""
        return self.distances(point)[class_position(index, len(self._values))]

    def nearest_point_of_class(self, index: int, point: int) -> Tuple[int, float]:
        """Closest point of rounded cost at most ``C_i`` and its distance.

        Resolved with the reference's own scan over the caller's cumulative
        point order — see the module docstring.
        """
        points = self._cumulative[class_position(index, len(self._values))]
        return self._metric.nearest(point, points)

    def cheapest_open_option(self, point: int) -> Tuple[int, float]:
        """``(argmin_i, min_i { C_i + d(C_i, point) })`` with 1-based index.

        Scans the classes in ascending order and moves only on a strict
        ``<``, so the first class attaining the minimum wins.
        """
        best_index, best_value = 1, float("inf")
        for index, (value, distance) in enumerate(
            zip(self._values, self.distances(point)), start=1
        ):
            option = value + distance
            if option < best_value:
                best_index, best_value = index, option
        return best_index, best_value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClassDistanceIndex(classes={self.num_classes}, "
            f"num_points={self._metric.num_points})"
        )
