"""Reference scans: the test oracle for the incremental distance caches.

Production has one hot path: the online algorithms answer their distance
queries from the caches of :mod:`repro.accel` — nearest-facility minima
(:class:`~repro.accel.tracker.NearestSetTracker`), memoized cost-class
columns (:class:`~repro.accel.classes.ClassDistanceIndex`) and running bid
sums (:class:`~repro.accel.history.BidHistoryBuffer`).  This module keeps the
plain computations those caches replace, with the same float operations,
order and tie-breaks:

* :class:`ScanFacilityStore` — ``d(F(e), r)`` / ``d(F̂, r)`` and nearest
  facilities by one scan over the open facilities per query;
* :class:`ReferencePDOMFLPAlgorithm` — PD-OMFLP's bid sums rebuilt from the
  full request history and per-request nearest-distance caches;
* :class:`ReferencePrimalDual` — the Fotakis helper's facility scan and bid
  sum over its demand history;
* :class:`ReferenceMeyerson` — the Meyerson helper's per-class scans and
  scalar coin probabilities;
* :class:`ReferenceRandOMFLPAlgorithm` — RAND-OMFLP on
  :class:`~repro.costs.classes.CostClassIndex` scan providers.

No query here reads a tracker, class index or bid buffer (the inherited
constructors still build them; nothing consults them).  Production code does
not know this module: the reference classes override private hooks of the
production ones, and :func:`reference_scans` patches the module globals
production constructs its facility store and single-commodity helpers from.
The oracle has no snapshot support.

``tests/test_accel_equivalence.py`` runs production against it with exact
``==``; ``benchmarks/bench_algorithm_kernels.py`` times both.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.algorithms.online.fotakis_ofl as fotakis_ofl
import repro.algorithms.online.meyerson_ofl as meyerson_ofl
import repro.algorithms.online.per_commodity as per_commodity
import repro.core.state as state_module
from repro.algorithms.base import OnlineAlgorithm, OnlineResult, run_online
from repro.algorithms.online.fotakis_ofl import FotakisOFLAlgorithm, SingleCommodityPrimalDual
from repro.algorithms.online.meyerson_ofl import MeyersonOFLAlgorithm, SingleCommodityMeyerson
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import PerCommodityAlgorithm
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.core.facility import Facility, FacilityStore
from repro.core.instance import Instance
from repro.core.requests import Request


# ---------------------------------------------------------------------------
# Facility store
# ---------------------------------------------------------------------------
class ScanFacilityStore(FacilityStore):
    """A facility store whose queries scan the relevant open facilities."""

    def distance_to_nearest(self, commodity: int, point: int) -> float:
        ids = self._by_commodity.get(commodity)
        if not ids:
            return float("inf")
        points = [self._facilities[i].point for i in ids]
        return float(np.min(self._metric.distances_between(point, points)))

    def nearest_offering(self, commodity: int, point: int) -> Optional[Tuple[Facility, float]]:
        ids = self._by_commodity.get(commodity)
        if not ids:
            return None
        points = [self._facilities[i].point for i in ids]
        distances = self._metric.distances_between(point, points)
        best = int(np.argmin(distances))
        return self._facilities[ids[best]], float(distances[best])

    def distance_to_nearest_large(self, point: int) -> float:
        if not self._large:
            return float("inf")
        points = [self._facilities[i].point for i in self._large]
        return float(np.min(self._metric.distances_between(point, points)))

    def nearest_large(self, point: int) -> Optional[Tuple[Facility, float]]:
        if not self._large:
            return None
        points = [self._facilities[i].point for i in self._large]
        distances = self._metric.distances_between(point, points)
        best = int(np.argmin(distances))
        return self._facilities[self._large[best]], float(distances[best])


# ---------------------------------------------------------------------------
# PD-OMFLP (Algorithm 1)
# ---------------------------------------------------------------------------
class ReferencePDOMFLPAlgorithm(PDOMFLPAlgorithm):
    """PD-OMFLP with its bid sums rebuilt from the request history each time."""

    def prepare(self, instance: Instance, state, rng) -> None:
        super().prepare(instance, state, rng)
        self._history: List[Request] = []
        self._nearest_small: Dict[Tuple[int, int], float] = {}
        self._nearest_large: Dict[int, float] = {}

    def _register_opened_facility(self, point: int, configuration) -> None:
        for request in self._history:
            distance = float(self._distance_row(point)[request.point])
            for commodity in configuration & request.commodities:
                key = (request.index, commodity)
                if distance < self._nearest_small.get(key, float("inf")):
                    self._nearest_small[key] = distance
            if configuration >= self._large_set:
                if distance < self._nearest_large.get(request.index, float("inf")):
                    self._nearest_large[request.index] = distance

    def _base_small(self, commodity: int) -> np.ndarray:
        relevant = [j for j in self._history if commodity in j.commodities]
        if not relevant:
            return np.zeros(self._instance.num_points, dtype=np.float64)
        bids = np.array(
            [
                min(
                    self._duals.get(j.index, commodity),
                    self._nearest_small.get((j.index, commodity), float("inf")),
                )
                for j in relevant
            ],
            dtype=np.float64,
        )
        rows = np.vstack([self._distance_row(j.point) for j in relevant])
        return np.maximum(bids[:, None] - rows, 0.0).sum(axis=0)

    def _base_large(self) -> np.ndarray:
        relevant = [j for j in self._history if j.commodities & self._large_set]
        if not relevant:
            return np.zeros(self._instance.num_points, dtype=np.float64)
        bids = np.array(
            [
                min(
                    sum(
                        self._duals.get(j.index, e)
                        for e in j.commodities & self._large_set
                    ),
                    self._nearest_large.get(j.index, float("inf")),
                )
                for j in relevant
            ],
            dtype=np.float64,
        )
        rows = np.vstack([self._distance_row(j.point) for j in relevant])
        return np.maximum(bids[:, None] - rows, 0.0).sum(axis=0)

    def _join_bid_history(self, request: Request, state) -> None:
        point = request.point
        self._history.append(request)
        for commodity in sorted(request.commodities):
            self._nearest_small[(request.index, commodity)] = state.distance_to_nearest(
                commodity, point
            )
        entry = self._nearest_covering_large(state, point)
        self._nearest_large[request.index] = entry[1] if entry is not None else float("inf")


# ---------------------------------------------------------------------------
# Single-commodity substrates
# ---------------------------------------------------------------------------
@dataclass
class _HistoryEntry:
    """One earlier demand seen by the single-commodity primal–dual helper."""

    point: int
    dual: float
    nearest_distance: float  # distance to the helper's nearest own facility


def _nearest_in(metric, point: int, facility_points: List[int]) -> Tuple[Optional[int], float]:
    """(slot, distance) of the nearest of ``facility_points`` — first on ties."""
    if not facility_points:
        return None, float("inf")
    distances = metric.distances_between(point, facility_points)
    best = int(np.argmin(distances))
    return best, float(distances[best])


class ReferencePrimalDual(SingleCommodityPrimalDual):
    """Fotakis' primal–dual helper with a facility scan and a rebuilt bid sum."""

    def __init__(self, metric, opening_costs) -> None:
        super().__init__(metric, opening_costs)
        self._history: List[_HistoryEntry] = []

    def _nearest_own_facility(self, point: int) -> Tuple[Optional[int], float]:
        return _nearest_in(self._metric, point, self._facility_points)

    def _append_facility(self, point: int) -> None:
        self._facility_points.append(int(point))

    def _bid_base(self) -> np.ndarray:
        if not self._history:
            return np.zeros(self._metric.num_points, dtype=np.float64)
        bids = np.array(
            [min(entry.dual, entry.nearest_distance) for entry in self._history],
            dtype=np.float64,
        )
        rows = np.vstack([self._row(entry.point) for entry in self._history])
        return np.maximum(bids[:, None] - rows, 0.0).sum(axis=0)

    def _join_bid_history(
        self, point: int, dual: float, nearest: float, opened: Optional[int]
    ) -> None:
        for entry in self._history:
            if opened is not None:
                entry.nearest_distance = min(
                    entry.nearest_distance, float(self._row(opened)[entry.point])
                )
        self._history.append(_HistoryEntry(point=point, dual=dual, nearest_distance=nearest))


class ReferenceMeyerson(SingleCommodityMeyerson):
    """Meyerson's helper with per-class scans and scalar coin probabilities."""

    def distance_to_class(self, index: int, point: int) -> float:
        points = self._class_points[index - 1]
        return float(np.min(self._metric.distances_between(point, points)))

    def nearest_point_of_class(self, index: int, point: int) -> int:
        nearest, _ = self._metric.nearest(point, self._class_points[index - 1])
        return int(nearest)

    def nearest_own_facility(self, point: int) -> Tuple[Optional[int], float]:
        return _nearest_in(self._metric, point, self._facility_points)

    def cheapest_open_option(self, point: int) -> Tuple[int, float]:
        classes = range(1, self.num_classes + 1)
        options = [self.class_value(i) + self.distance_to_class(i, point) for i in classes]
        best = min(classes, key=lambda i: options[i - 1])
        return best, options[best - 1]

    def _append_facility(self, point: int) -> None:
        self._facility_points.append(int(point))

    def _class_probabilities(self, point: int, effective_budget: float) -> List[float]:
        probabilities = []
        previous_distance = effective_budget
        for i in range(1, self.num_classes + 1):
            value = self.class_value(i)
            distance_i = self.distance_to_class(i, point)
            increment = previous_distance - distance_i
            previous_distance = distance_i
            if value <= 0:
                probability = 1.0 if increment > 0 else 0.0
            else:
                probability = min(max(increment / value, 0.0), 1.0)
            probabilities.append(probability)
        return probabilities


# ---------------------------------------------------------------------------
# RAND-OMFLP (Algorithm 2)
# ---------------------------------------------------------------------------
class ReferenceRandOMFLPAlgorithm(RandOMFLPAlgorithm):
    """RAND-OMFLP answering its class-distance queries by CostClassIndex scans."""

    def _provider_for(self, commodity: int):
        return self._classes_for(commodity)

    def _large_provider(self):
        return self._large_classes


# ---------------------------------------------------------------------------
# Running the oracle
# ---------------------------------------------------------------------------
#: (module, global name, reference substitute) patched by reference_scans().
_SUBSTITUTES = (
    (state_module, "FacilityStore", ScanFacilityStore),
    (fotakis_ofl, "SingleCommodityPrimalDual", ReferencePrimalDual),
    (meyerson_ofl, "SingleCommodityMeyerson", ReferenceMeyerson),
    (per_commodity, "SingleCommodityPrimalDual", ReferencePrimalDual),
    (per_commodity, "SingleCommodityMeyerson", ReferenceMeyerson),
)


@contextlib.contextmanager
def reference_scans() -> Iterator[None]:
    """Within the block, new online states and helpers use the reference scans."""
    originals = [(module, name, getattr(module, name)) for module, name, _ in _SUBSTITUTES]
    try:
        for module, name, substitute in _SUBSTITUTES:
            setattr(module, name, substitute)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


#: Algorithm registry name -> factory of its reference version.  The
#: helper-based algorithms are the production classes: reference_scans()
#: swaps the helpers they build.
REFERENCE_ALGORITHMS: Dict[str, Callable[[], OnlineAlgorithm]] = {
    "meyerson-ofl": MeyersonOFLAlgorithm,
    "fotakis-ofl": FotakisOFLAlgorithm,
    "pd-omflp": ReferencePDOMFLPAlgorithm,
    "rand-omflp": ReferenceRandOMFLPAlgorithm,
    "per-commodity-fotakis": lambda: PerCommodityAlgorithm("fotakis"),
    "per-commodity-meyerson": lambda: PerCommodityAlgorithm("meyerson"),
}


def run_reference(name: str, instance: Instance, **options) -> OnlineResult:
    """:func:`~repro.algorithms.base.run_online` of the reference ``name``."""
    with reference_scans():
        return run_online(REFERENCE_ALGORITHMS[name](), instance, **options)
