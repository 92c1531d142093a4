"""Meyerson's randomized algorithm for online facility location.

Meyerson (FOCS 2001) opens, when a demand arrives, a facility with probability
proportional to the connection cost the demand would otherwise pay; for
non-uniform facility costs the decision is spread over power-of-two cost
classes.  The algorithm is O(log n / log log n)-competitive against adversarial
sequences and constant-competitive for random order; it is the basis of the
paper's RAND-OMFLP (Section 4).

As with the deterministic substrate, the reusable logic lives in a
self-contained helper (:class:`SingleCommodityMeyerson`) so that the
per-commodity decomposition baseline can instantiate one per commodity, and a
thin :class:`MeyersonOFLAlgorithm` exposes the classical single-commodity
algorithm.

The helper memoizes the per-class distance columns
(:class:`~repro.accel.classes.ClassDistanceIndex`) and tracks its own facility
set incrementally (:class:`~repro.accel.tracker.NearestSetTracker`), so a
demand costs O(classes) plus O(n) per opened facility or unseen point.  The
coins are flipped in one scalar loop over the class values and the memoized
class distances: each class's probability is a float expression of two
neighbouring distances, and a class with a positive probability takes one
``random()`` draw.  A column holds one to a few classes, so plain float
arithmetic is cheaper here than NumPy calls on tiny arrays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.accel.classes import ClassDistanceIndex
from repro.accel.tracker import NearestSetTracker
from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.costs.classes import class_position
from repro.exceptions import AlgorithmError, SnapshotError
from repro.metric.base import MetricSpace
from repro.utils.maths import round_down_power_of_two
from repro.utils.validation import snapshot_field, snapshot_indices, snapshot_int_rows

__all__ = ["SingleCommodityMeyerson", "MeyersonOFLAlgorithm"]


class SingleCommodityMeyerson:
    """Meyerson's randomized online facility location for one commodity.

    The helper owns its private facility list; the caller maps opened
    facilities onto real state facilities.
    """

    def __init__(self, metric: MetricSpace, opening_costs: Sequence[float]) -> None:
        costs = np.asarray(opening_costs, dtype=np.float64)
        if costs.shape != (metric.num_points,):
            raise AlgorithmError(
                f"opening_costs must have one entry per point, got shape {costs.shape}"
            )
        self._metric = metric
        rounded = round_down_power_of_two(costs)
        self._rounded = rounded
        values = np.unique(rounded).tolist()
        self._class_values: List[float] = values
        # cumulative point sets: points whose rounded cost is <= class value
        # (kept as intp arrays so distances_between never re-converts them).
        self._class_points: List[np.ndarray] = [
            np.where(rounded <= value)[0].astype(np.intp) for value in values
        ]
        self._facility_points: List[int] = []
        exact = [np.where(rounded == value)[0].astype(np.intp) for value in values]
        # The cumulative sets are handed over in ascending point order, so
        # lazy nearest-point scans break ties towards the lowest point index.
        self._class_index = ClassDistanceIndex(metric, values, exact, self._class_points)
        self._tracker = NearestSetTracker()

    # ------------------------------------------------------------------
    @property
    def facility_points(self) -> List[int]:
        return list(self._facility_points)

    @property
    def num_facilities(self) -> int:
        """``len(facility_points)`` without copying the list."""
        return len(self._facility_points)

    @property
    def num_classes(self) -> int:
        return len(self._class_values)

    def class_value(self, index: int) -> float:
        """``C_i`` for the 1-based class index."""
        return self._class_values[class_position(index, len(self._class_values))]

    def distance_to_class(self, index: int, point: int) -> float:
        """Distance to the nearest point of rounded cost at most ``C_i``."""
        return self._class_index.distance_to_class(index, point)

    def nearest_point_of_class(self, index: int, point: int) -> int:
        return self._class_index.nearest_point_of_class(index, point)[0]

    def nearest_own_facility(self, point: int) -> Tuple[Optional[int], float]:
        entry = self._tracker.nearest(point)
        if entry is None:
            return None, float("inf")
        return entry

    def cheapest_open_option(self, point: int) -> Tuple[int, float]:
        """``(argmin_i, min_i (C_i + d(C_i, r)))`` with 1-based index (first minimum)."""
        return self._class_index.cheapest_open_option(point)

    def connection_budget(self, point: int) -> float:
        """``X(r) = min{d(F, r), min_i (C_i + d(C_i, r))}`` for a demand at ``point``."""
        _, nearest = self.nearest_own_facility(point)
        _, cheapest_open = self.cheapest_open_option(point)
        return min(nearest, cheapest_open)

    def _append_facility(self, point: int) -> None:
        self._facility_points.append(int(point))
        # Tag = slot index, so nearest_own_facility reports the slot.
        self._tracker.add(
            self._metric.distances_to(int(point)), tag=len(self._facility_points) - 1
        )

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """The helper's only mutable state: its facility points, in order."""
        return {"facility_points": list(self._facility_points)}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Replay the facility openings (refolds the tracker identically).

        The points must be JSON integers of the metric; anything else raises
        :class:`SnapshotError` naming the entry, before any facility opens.
        """
        if self._facility_points:
            raise SnapshotError(
                "SingleCommodityMeyerson.load_state_dict requires a fresh helper"
            )
        points = snapshot_indices(
            snapshot_field(state, "facility_points", "Meyerson helper state"),
            "Meyerson helper facility_points",
            self._metric.num_points,
        )
        for point in points:
            self._append_facility(point)

    # ------------------------------------------------------------------
    def decide(self, point: int, rng, *, budget: Optional[float] = None) -> Tuple[List[int], int, float]:
        """Process a demand at ``point``.

        ``budget`` overrides the class-0 distance ``d(C_0, r)`` (RAND-OMFLP
        passes ``min{X(r), Z(r)} * X(r, e) / X(r)`` here); the default is the
        demand's own connection budget ``X(r)``.

        Class ``i`` opens with probability
        ``min(max((d(C_{i-1}, r) - d(C_i, r)) / C_i, 0), 1)``, with
        ``d(C_0, r)`` the budget; a zero-cost class opens exactly when that
        difference is positive.

        Returns ``(opened_points, facility_slot, connection_distance)`` where
        ``opened_points`` are the points this call appended to the helper's
        facility list, in slot order, and ``facility_slot`` indexes that
        list for the facility the demand connects to.
        """
        previous = self.connection_budget(point) if budget is None else float(budget)
        opened: List[int] = []
        classes = zip(self._class_values, self._class_index.distances(point))
        for index, (value, distance) in enumerate(classes, start=1):
            increment = previous - distance
            previous = distance
            if value <= 0:
                probability = 1.0 if increment > 0 else 0.0
            else:
                probability = min(max(increment / value, 0.0), 1.0)
            if probability > 0 and rng.random() < probability:
                opened.append(self.nearest_point_of_class(index, point))
        for new_point in opened:
            self._append_facility(int(new_point))
        if not self._facility_points:
            # Feasibility fallback: open the cheapest opening option
            # deterministically (changes constants only, see DESIGN.md §4.2).
            best_i, _ = self.cheapest_open_option(point)
            fallback = self.nearest_point_of_class(best_i, point)
            self._append_facility(int(fallback))
            opened.append(int(fallback))
        slot, distance = self.nearest_own_facility(point)
        return opened, int(slot), float(distance)


class MeyersonOFLAlgorithm(OnlineAlgorithm):
    """Classical randomized online facility location (single commodity)."""

    randomized = True

    def __init__(self) -> None:
        self.name = "meyerson-ofl"
        self._helper: Optional[SingleCommodityMeyerson] = None
        self._facility_of_slot: Dict[int, int] = {}

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        if instance.num_commodities != 1:
            raise AlgorithmError(
                "MeyersonOFLAlgorithm requires |S| = 1; got "
                f"|S| = {instance.num_commodities}"
            )
        costs = instance.cost_function.costs_over_points((0,), list(range(instance.num_points)))
        self._helper = SingleCommodityMeyerson(instance.metric, costs)
        self._facility_of_slot = {}

    def state_dict(self) -> Dict[str, Any]:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        return {
            "helper": self._helper.state_dict(),
            "facility_of_slot": [
                [slot, fid] for slot, fid in self._facility_of_slot.items()
            ],
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        where = f"{self.name} state"
        self._helper.load_state_dict(snapshot_field(state, "helper", where))
        self._facility_of_slot = dict(
            snapshot_int_rows(
                snapshot_field(state, "facility_of_slot", where),
                "facility_of_slot",
                ("slot", "facility id"),
            )
        )

    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before process()")
        opened, slot, _ = self._helper.decide(request.point, rng)
        # Open the real facilities for every new helper facility, in order:
        # ``opened`` lists exactly the helper's newly appended points.
        first_slot = self._helper.num_facilities - len(opened)
        for new_slot, new_point in enumerate(opened, start=first_slot):
            facility = state.open_facility(request, new_point, (0,))
            self._facility_of_slot[new_slot] = facility.id
        assignment = Assignment(request.index, {0: self._facility_of_slot[slot]})
        state.record_assignment(request, assignment)
