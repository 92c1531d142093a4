"""Facility cost classes (powers of two) for RAND-OMFLP.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

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
        for the distance convention described in the module docstring).
    """

    index: int
    value: float
    points: Tuple[int, ...]
    cumulative_points: Tuple[int, ...]


class CostClassIndex:
    """Power-of-two cost classes of one configuration over all metric points."""

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
        raw_costs = cost_function.costs_over_points(self._configuration, points)
        rounded = round_down_power_of_two(raw_costs)
        self._rounded_costs = rounded

        distinct = np.unique(rounded).tolist()
        classes: List[CostClass] = []
        cumulative: List[int] = []
        cumulative_arrays: List[np.ndarray] = []
        for i, value in enumerate(distinct, start=1):
            exact = tuple(int(p) for p in np.where(rounded == value)[0])
            cumulative.extend(exact)
            classes.append(
                CostClass(
                    index=i,
                    value=float(value),
                    points=exact,
                    cumulative_points=tuple(cumulative),
                )
            )
            cumulative_arrays.append(np.asarray(cumulative, dtype=np.intp))
        self._classes = classes
        # Pre-converted cumulative point arrays: the distance queries below
        # run per request per class, and handing distances_between a ready
        # intp array avoids a list -> array conversion on every call.
        self._cumulative_arrays = cumulative_arrays

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
        return self._class_at(index).value

    def rounded_cost_at(self, point: int) -> float:
        """Rounded (power-of-two) cost of the configuration at ``point``."""
        return float(self._rounded_costs[point])

    def class_of_point(self, point: int) -> int:
        """1-based class index of ``point``'s rounded cost."""
        value = self.rounded_cost_at(point)
        for cls in self._classes:
            if cls.value == value:
                return cls.index
        raise InvalidCostFunctionError(f"point {point} has no cost class")  # pragma: no cover

    def distance_to_class(self, index: int, from_point: int) -> float:
        """``d(C^sigma_i, r)`` under the cumulative convention (see module docstring)."""
        self._class_at(index)
        return self._metric.nearest_distance(from_point, self._cumulative_arrays[index - 1])

    def nearest_point_of_class(self, index: int, from_point: int) -> Tuple[int, float]:
        """Closest point whose rounded cost is at most ``C^sigma_i``."""
        self._class_at(index)
        return self._metric.nearest(from_point, self._cumulative_arrays[index - 1])

    def cheapest_open_option(self, from_point: int) -> Tuple[int, float]:
        """``(argmin_i, min_i { C^sigma_i + d(C^sigma_i, r) })`` for ``r = from_point``.

        This is the "open a new facility of some class and connect to it" term
        inside ``X(r, e)`` and ``Z(r)`` of Section 4.1.
        """
        best_index, best_value = 1, float("inf")
        for cls in self._classes:
            value = cls.value + self.distance_to_class(cls.index, from_point)
            if value < best_value:
                best_index, best_value = cls.index, value
        return best_index, best_value

    def opening_option_values(self, from_point: int) -> np.ndarray:
        """Vector of ``C^sigma_i + d(C^sigma_i, r)`` over all classes ``i``."""
        return np.array(
            [cls.value + self.distance_to_class(cls.index, from_point) for cls in self._classes],
            dtype=np.float64,
        )

    def _class_at(self, index: int) -> CostClass:
        return self._classes[class_position(index, len(self._classes))]
