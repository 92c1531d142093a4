"""Facilities and the store of currently open facilities.

A facility is opened at a point with a configuration ``σ ⊆ S`` and never
closes (online decisions are irrevocable).  :class:`FacilityStore` maintains
the open facilities together with the per-commodity indexes the paper's
notation refers to: ``F(e)`` (facilities offering commodity ``e``) and ``F̂``
(facilities offering all of ``S``, the *large* facilities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.accel.tracker import NearestSetTracker
from repro.costs.base import FacilityCostFunction
from repro.exceptions import InvalidInstanceError, SnapshotError
from repro.metric.base import MetricSpace

__all__ = ["Facility", "FacilityStore"]


@dataclass(frozen=True)
class Facility:
    """An opened facility.

    Attributes
    ----------
    id:
        Opening order (0-based, unique within a solution).
    point:
        Metric-space point where the facility is located.
    configuration:
        Set of commodities offered.
    opening_cost:
        The construction cost ``f^σ_m`` paid when the facility was opened.
    """

    id: int
    point: int
    configuration: FrozenSet[int]
    opening_cost: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise InvalidInstanceError(f"facility id must be non-negative, got {self.id}")
        if self.point < 0:
            raise InvalidInstanceError(f"facility point must be non-negative, got {self.point}")
        if not isinstance(self.configuration, frozenset):
            object.__setattr__(self, "configuration", frozenset(self.configuration))
        if not self.configuration:
            raise InvalidInstanceError("a facility must offer at least one commodity")
        if self.opening_cost < 0:
            raise InvalidInstanceError(
                f"opening cost must be non-negative, got {self.opening_cost}"
            )

    def offers(self, commodity: int) -> bool:
        """Whether the facility offers the commodity."""
        return commodity in self.configuration

    def offers_all(self, commodities: Iterable[int]) -> bool:
        """Whether the facility offers every commodity in the given set."""
        return frozenset(commodities) <= self.configuration


class FacilityStore:
    """The set ``F`` of currently open facilities with per-commodity indexes.

    The store answers the three distance queries the algorithms need —
    ``d(F(e), r)``, ``d(F̂, r)`` and nearest-facility lookups.  Each is O(1)
    against incremental :class:`~repro.accel.tracker.NearestSetTracker`
    minima folded in at opening time (see :mod:`repro.accel`);
    :meth:`nearest_covering`, needed only for restricted large
    configurations, scans the open facilities.
    """

    def __init__(self, metric: MetricSpace, cost_function: FacilityCostFunction) -> None:
        self._metric = metric
        self._cost_function = cost_function
        self._facilities: List[Facility] = []
        self._by_commodity: Dict[int, List[int]] = {}
        self._large: List[int] = []
        self._total_opening_cost = 0.0
        self._full_set = cost_function.full_set
        self._trackers: Dict[int, NearestSetTracker] = {}
        self._large_tracker: Optional[NearestSetTracker] = None

    # ------------------------------------------------------------------
    # Opening facilities
    # ------------------------------------------------------------------
    def open(self, point: int, configuration: Iterable[int]) -> Facility:
        """Open a facility and return it (cost is charged automatically)."""
        config = self._cost_function.normalize_configuration(configuration)
        if not config:
            raise InvalidInstanceError("cannot open a facility with an empty configuration")
        if not 0 <= point < self._metric.num_points:
            raise InvalidInstanceError(
                f"facility point {point} out of range [0, {self._metric.num_points})"
            )
        cost = self._cost_function.cost(point, config)
        facility = Facility(
            id=len(self._facilities), point=int(point), configuration=config, opening_cost=cost
        )
        self._facilities.append(facility)
        for commodity in config:
            self._by_commodity.setdefault(commodity, []).append(facility.id)
        if config == self._full_set:
            self._large.append(facility.id)
        self._total_opening_cost += cost
        for commodity in config:
            tracker = self._trackers.get(commodity)
            if tracker is None:
                tracker = self._trackers[commodity] = NearestSetTracker(self._metric)
            tracker.add(facility.point, tag=facility.id)
        if config == self._full_set:
            if self._large_tracker is None:
                self._large_tracker = NearestSetTracker(self._metric)
            self._large_tracker.add(facility.point, tag=facility.id)
        return facility

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot: ``(point, configuration)`` in opening order.

        Opening costs and ids are *not* stored — they are deterministic
        functions of the (static) cost function and the opening order, so
        :meth:`load_state_dict` re-derives them bit-identically by replaying
        :meth:`open`, which also rebuilds the accel trackers with the same
        fold sequence as the original run.
        """
        return {
            "facilities": [[f.point, sorted(f.configuration)] for f in self._facilities]
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Rebuild the store by replaying ``open`` (requires a fresh store)."""
        if self._facilities:
            raise SnapshotError(
                "FacilityStore.load_state_dict requires an empty store; "
                f"this one already holds {len(self._facilities)} facilities"
            )
        for point, configuration in state["facilities"]:
            self.open(int(point), (int(e) for e in configuration))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def facilities(self) -> List[Facility]:
        return list(self._facilities)

    def facility_map(self) -> Dict[int, Facility]:
        """Read-only id -> facility mapping maintained incrementally.

        Facility ids are their opening order, so the list indexes itself; the
        dict view is rebuilt only when facilities were opened since the last
        call (cheap, and callers on the per-request hot path avoid an O(|F|)
        rebuild per request).  Callers must not mutate the returned dict.
        """
        cached = getattr(self, "_facility_map_cache", None)
        if cached is None or len(cached) != len(self._facilities):
            cached = {f.id: f for f in self._facilities}
            self._facility_map_cache = cached
        return cached

    def __len__(self) -> int:
        return len(self._facilities)

    def __getitem__(self, facility_id: int) -> Facility:
        return self._facilities[facility_id]

    @property
    def total_opening_cost(self) -> float:
        """Sum of opening costs of all facilities opened so far."""
        return self._total_opening_cost

    def facilities_offering(self, commodity: int) -> List[Facility]:
        """``F(e)`` — currently open facilities offering ``commodity``."""
        return [self._facilities[i] for i in self._by_commodity.get(commodity, ())]

    def large_facilities(self) -> List[Facility]:
        """``F̂`` — currently open facilities offering all of ``S``."""
        return [self._facilities[i] for i in self._large]

    def has_facility_for(self, commodity: int) -> bool:
        return bool(self._by_commodity.get(commodity))

    def has_large_facility(self) -> bool:
        return bool(self._large)

    # ------------------------------------------------------------------
    # Distance queries
    # ------------------------------------------------------------------
    def distance_to_nearest(self, commodity: int, point: int) -> float:
        """``d(F(e), r)`` — ``inf`` when no facility offers the commodity yet."""
        tracker = self._trackers.get(commodity)
        return tracker.distance(point) if tracker is not None else float("inf")

    def nearest_offering(self, commodity: int, point: int) -> Optional[Tuple[Facility, float]]:
        """Nearest facility offering ``commodity`` and its distance, or ``None``."""
        tracker = self._trackers.get(commodity)
        if tracker is None:
            return None
        facility_id, distance = tracker.nearest(point)
        return self._facilities[facility_id], distance

    def distance_to_nearest_large(self, point: int) -> float:
        """``d(F̂, r)`` — ``inf`` when no large facility exists yet."""
        tracker = self._large_tracker
        return tracker.distance(point) if tracker is not None else float("inf")

    def nearest_large(self, point: int) -> Optional[Tuple[Facility, float]]:
        """Nearest large facility and its distance, or ``None``."""
        tracker = self._large_tracker
        if tracker is None:
            return None
        facility_id, distance = tracker.nearest(point)
        return self._facilities[facility_id], distance

    def nearest_covering(self, commodities: FrozenSet[int], point: int) -> Optional[Tuple[Facility, float]]:
        """Nearest facility offering *all* the given commodities, or ``None``."""
        candidates = [f for f in self._facilities if f.offers_all(commodities)]
        if not candidates:
            return None
        points = [f.point for f in candidates]
        distances = self._metric.distances_between(point, points)
        best = int(np.argmin(distances))
        return candidates[best], float(distances[best])
