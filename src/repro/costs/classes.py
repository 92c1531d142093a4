"""Facility cost classes (powers of two) and their distance queries.

Section 4.1 of the paper: "Fix a configuration sigma.  Consider the set of all
possible different ``f^sigma_m`` rounded down to the nearest power of 2 in
increasing order ``C^sigma_1, ..., C^sigma_n``.  We call ``C^sigma_i`` the
class ``i`` with respect to sigma [...].  Let ``d(C^sigma_i, m)`` denote the
minimal distance from a point ``m`` to a point in class ``i``."

Implementation conventions (documented in DESIGN.md §4.2): ``d(C^sigma_i, r)``
is the distance from ``r`` to the nearest point whose *rounded* cost is at
most ``C^sigma_i``.  This makes the distances non-increasing in ``i`` (zero
from class ``i`` onwards once ``r``'s own location belongs to a class
``<= i``), which is what gives the telescoping expectation of Lemma 20 and
keeps the per-class probabilities inside ``[0, 1]``.

:class:`CostClassIndex` is the one implementation of these classes: RAND-OMFLP
and the Meyerson helper of the per-commodity baseline read it from the
instance's tables (:mod:`repro.accel.tables`), one per configuration.  Every
arriving request asks for the whole column ``(d(C_1, r), ..., d(C_k, r))``,
so the index computes it on the first query from ``r`` out of one metric row:
the row is gathered in class-major point order, reduced to per-class minima
with one ``np.minimum.reduceat`` pass and turned into the cumulative
convention with ``np.minimum.accumulate``.  The column is memoized as a tuple
of floats (the scalar per-request loops walk one to a few classes, where plain
float arithmetic beats a NumPy call), so repeat queries are O(1) and the work
is O(n) per distinct query point.  Each entry is a minimum over exactly the
floats of ``distances_from(r)`` that a per-class scan reads, and a minimum is
order-independent, so the columns equal the scans bit for bit.

The nearest point of a class is needed only when a facility opens, so it is
not memoized: each call is a ``metric.nearest`` scan over the class's
cumulative points in class-major order, whose ``np.argmin`` breaks equal
distances towards the cheapest class, then the lowest point index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.costs.base import FacilityCostFunction
from repro.exceptions import InvalidCostFunctionError
from repro.metric.base import MetricSpace
from repro.utils.maths import round_down_power_of_two

__all__ = ["CostClass", "CostClassIndex", "class_position"]


def class_position(index: int, num_classes: int) -> int:
    """0-based position of the 1-based class ``index`` among ``num_classes``.

    Raises :class:`InvalidCostFunctionError` outside ``[1, num_classes]``, so
    index 0 or -1 never wraps around to the last class.
    """
    if not 1 <= index <= num_classes:
        raise InvalidCostFunctionError(
            f"class index {index} out of range [1, {num_classes}]"
        )
    return index - 1


@dataclass(frozen=True)
class CostClass:
    """One facility cost class for a fixed configuration.

    Attributes
    ----------
    index:
        1-based class index ``i`` (class 1 is the cheapest).
    value:
        The rounded (power-of-two) cost ``C^sigma_i``.
    points:
        Point indices whose rounded cost equals ``value`` exactly.
    cumulative_points:
        Point indices whose rounded cost is at most ``value`` (the set used
        for the distance convention described in the module docstring), class
        by class.
    """

    index: int
    value: float
    points: Tuple[int, ...]
    cumulative_points: Tuple[int, ...]


class CostClassIndex:
    """Power-of-two cost classes of one configuration and their memoized distances.

    Class indexes are 1-based; an index outside ``[1, k]`` raises
    :class:`InvalidCostFunctionError`.  The index holds no run-dependent
    state, so a session snapshot never carries it.
    """

    def __init__(
        self,
        metric: MetricSpace,
        cost_function: FacilityCostFunction,
        configuration: Iterable[int],
    ) -> None:
        self._metric = metric
        self._configuration = cost_function.normalize_configuration(configuration)
        if not self._configuration:
            raise InvalidCostFunctionError("cost classes require a non-empty configuration")
        points = list(range(metric.num_points))
        rounded = round_down_power_of_two(
            cost_function.costs_over_points(self._configuration, points)
        )
        classes: List[CostClass] = []
        cumulative: List[int] = []
        for i, value in enumerate(np.unique(rounded).tolist(), start=1):
            exact = tuple(np.flatnonzero(rounded == value).tolist())
            cumulative.extend(exact)
            classes.append(
                CostClass(
                    index=i,
                    value=float(value),
                    points=exact,
                    cumulative_points=tuple(cumulative),
                )
            )
        self._classes = classes
        #: ``(C_1, ..., C_k)``, ascending.
        self.values: Tuple[float, ...] = tuple(cls.value for cls in classes)
        # Class-major point order: class i's cumulative points are its prefix
        # of length ends[i - 1]; starts are the reduceat segment offsets.
        self._order = np.asarray(cumulative, dtype=np.intp)
        self._ends = [len(cls.cumulative_points) for cls in classes]
        self._starts = np.asarray([0] + self._ends[:-1], dtype=np.intp)
        self._columns: Dict[int, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    @property
    def configuration(self) -> FrozenSet[int]:
        return self._configuration

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    @property
    def classes(self) -> List[CostClass]:
        return list(self._classes)

    def class_value(self, index: int) -> float:
        """``C^sigma_i`` for the 1-based class index ``i``."""
        return self.values[class_position(index, len(self.values))]

    # ------------------------------------------------------------------
    def distances(self, point: int) -> Tuple[float, ...]:
        """``(d(C_1, point), ..., d(C_k, point))``, computed once per point."""
        column = self._columns.get(point)
        if column is None:
            row = np.asarray(self._metric.distances_from(point), dtype=np.float64)
            per_class = np.minimum.reduceat(row[self._order], self._starts)
            column = tuple(np.minimum.accumulate(per_class).tolist())
            self._columns[point] = column
        return column

    def distance_to_class(self, index: int, from_point: int) -> float:
        """``d(C^sigma_i, r)`` under the cumulative convention (see module docstring)."""
        position = class_position(index, len(self.values))
        return self.distances(from_point)[position]

    def nearest_point_of_class(self, index: int, from_point: int) -> Tuple[int, float]:
        """Closest point whose rounded cost is at most ``C^sigma_i``, and its distance.

        Equal distances go to the cheapest class, then the lowest point index.
        """
        end = self._ends[class_position(index, len(self.values))]
        return self._metric.nearest(from_point, self._order[:end])

    def cheapest_open_option(self, from_point: int) -> Tuple[int, float]:
        """``(argmin_i, min_i { C^sigma_i + d(C^sigma_i, r) })`` for ``r = from_point``.

        This is the "open a new facility of some class and connect to it" term
        inside ``X(r, e)`` and ``Z(r)`` of Section 4.1.  The classes are
        scanned in ascending order and the best moves only on a strict ``<``,
        so the first class attaining the minimum wins.
        """
        best_index, best_value = 1, float("inf")
        for index, (value, distance) in enumerate(
            zip(self.values, self.distances(from_point)), start=1
        ):
            option = value + distance
            if option < best_value:
                best_index, best_value = index, option
        return best_index, best_value
