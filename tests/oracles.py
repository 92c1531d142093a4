"""Reference scans: the test oracle for the incremental distance caches.

Production has one hot path: the online algorithms answer their distance
queries from the caches of :mod:`repro.accel` — nearest-facility minima
(:class:`~repro.accel.tracker.NearestSetTracker`), memoized cost-class
columns (:class:`~repro.costs.classes.CostClassIndex`, held by the instance's
tables) and running bid sums (:class:`~repro.accel.history.BidHistoryBuffer`).
This module keeps the plain computations those caches replace, with the same
float operations, order and tie-breaks:

* :class:`ScanFacilityStore` — ``d(F(e), r)`` / ``d(F̂, r)`` and nearest
  facilities by one scan over the open facilities per query;
* :class:`ReferencePDOMFLPAlgorithm` — PD-OMFLP's bid sums rebuilt from the
  full request history and per-request nearest-distance caches;
* :class:`ReferencePrimalDual` — the Fotakis helper's bid sum over its
  demand history;
* :class:`ReferenceMeyerson` — the Meyerson helper's per-class scans and
  scalar coin probabilities;
* :class:`ScanCostClasses` — a cost-class index's queries as one scan per
  class per call, over the production index's class values and point sets;
* :class:`ReferenceRandOMFLPAlgorithm` — RAND-OMFLP on
  :class:`ScanCostClasses`.

The offline greedy solver computes each round's ratio table over arrays; its
oracle is the plain loop over every (point, configuration) candidate:

* :class:`ReferenceGreedyOfflineSolver` — the greedy rounds rebuilding each
  candidate's covered pairs and summing its connection cost in Python;
* :func:`reference_optimal_assignment` — the assignment DP whose
  reconstruction asks the metric again for every distance it already holds.

No query here reads a tracker, a memoized class-distance column or a bid
buffer: the scans take only the class values and point sets of the
production class index, and nothing consults what the inherited
constructors still build.  The single-commodity helpers read ``F(e)``
through the state, whose store is the scan store inside
:func:`reference_scans`.  Production code does not know this module: the
reference classes override private hooks of the production ones, and
:func:`reference_scans` patches the module globals production constructs its
facility store, single-commodity helpers, the local search's greedy start and
the offline assignments from.
The reference scans have no snapshot support.

:class:`~repro.core.state.OnlineState` logs recorded assignments as flat
arrays, finalizes from its running totals and restores a snapshot in one
array pass.  Its oracle is the object log those replaced:

* :class:`ObjectLogState` — the log as ``Request`` and ``Assignment``
  objects, a snapshot replay of either format that re-records every
  request, and connection costs from :func:`reference_connection_cost`, the
  plain loop over the facility-id frozenset; :func:`object_log` makes new
  sessions use it;
* :func:`reference_finalize` — the finalize that validates every request's
  assignment and recomputes every cost from the frozen solution;
* :func:`v1_state_dict` and :func:`v1_snapshot` — the per-row writer of
  snapshot format 1, one list per request and per pair, which the column
  log of format 2 replaced.

The streaming offline bound of :mod:`repro.analysis.competitive` answers an
arrival from one bit of a per-commodity coverage mask, and the tracer's
reservoir sample (:mod:`repro.trace.reservoir`) jumps from one replacement
index to the next over a batch.  Their
oracles are the loops those replaced:

* :class:`ReferenceOfflineBound` — a memo of seen points per commodity and,
  for each new point, the minimum over ``distances_between(point, anchors)``;
* :class:`ReferenceReservoirSampler` — Algorithm L one value at a time.

``tests/test_accel_equivalence.py``, ``tests/test_offline_equivalence.py``,
``tests/test_state_log_equivalence.py``, ``tests/test_offline_bound_oracle.py``
and ``tests/test_observer_batches.py`` run production against it with exact
``==``; ``benchmarks/bench_algorithm_kernels.py`` times the scans.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

import repro.algorithms.offline.common as offline_common
import repro.algorithms.offline.local_search as local_search
import repro.algorithms.online.per_commodity as per_commodity
import repro.api.session as session_module
import repro.core.state as state_module
from repro.algorithms.base import OnlineAlgorithm, OnlineResult, run_online
from repro.algorithms.offline.common import candidate_configurations
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.online.fotakis_ofl import SingleCommodityPrimalDual
from repro.algorithms.online.meyerson_ofl import SingleCommodityMeyerson
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import (
    FotakisOFLAlgorithm,
    MeyersonOFLAlgorithm,
    PerCommodityAlgorithm,
)
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.analysis.competitive import IncrementalOfflineBound
from repro.core.assignment import Assignment
from repro.core.facility import Facility, FacilityStore
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.solution import CostBreakdown, Solution
from repro.core.state import OnlineState
from repro.core.trace import RequestAssignedEvent
from repro.costs.classes import CostClassIndex
from repro.exceptions import AlgorithmError, InfeasibleSolutionError, SnapshotError
from repro.metric.base import MetricSpace
from repro.trace.reservoir import ReservoirSampler


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
    nearest_distance: float  # d(F(e), demand) after the demand was served


class ReferencePrimalDual(SingleCommodityPrimalDual):
    """Fotakis' primal–dual helper with a rebuilt bid sum."""

    def __init__(self, instance: Instance, commodity: int) -> None:
        super().__init__(instance, commodity)
        self._metric = instance.metric
        self._history: List[_HistoryEntry] = []

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
    """Meyerson's helper with per-class scans and scalar coin probabilities.

    The scans walk the helper's ascending cumulative point arrays.
    """

    def distance_to_class(self, index: int, point: int) -> float:
        points = self._class_points[index - 1]
        return float(np.min(self._metric.distances_between(point, points)))

    def nearest_point_of_class(self, index: int, point: int) -> int:
        nearest, _ = self._metric.nearest(point, self._class_points[index - 1])
        return int(nearest)

    def cheapest_open_option(self, point: int) -> Tuple[int, float]:
        classes = range(1, self.num_classes + 1)
        options = [self.class_value(i) + self.distance_to_class(i, point) for i in classes]
        best = min(classes, key=lambda i: options[i - 1])
        return best, options[best - 1]

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

    def decide(self, request: Request, state: OnlineState, rng) -> int:
        """The helper's decide before its scalar coin loop: the probabilities of
        :meth:`_class_probabilities`, then one ``uniform()`` per positive coin."""
        point = request.point
        nearest = state.nearest_offering(self._commodity, point)
        _, cheapest_open = self.cheapest_open_option(point)
        budget = min(float("inf") if nearest is None else nearest[1], cheapest_open)
        opened: List[int] = []
        probabilities = self._class_probabilities(point, budget)
        for i in range(1, self.num_classes + 1):
            probability = float(probabilities[i - 1])
            if probability > 0 and rng.uniform() < probability:
                opened.append(self.nearest_point_of_class(i, point))
        if nearest is None and not opened:
            best_i, _ = self.cheapest_open_option(point)
            opened.append(self.nearest_point_of_class(best_i, point))
        for new_point in opened:
            state.open_facility(request, new_point, (self._commodity,))
        return state.nearest_offering(self._commodity, point)[0].id


# ---------------------------------------------------------------------------
# RAND-OMFLP (Algorithm 2)
# ---------------------------------------------------------------------------
class ScanCostClasses:
    """A :class:`~repro.costs.classes.CostClassIndex`'s queries answered by one
    scan per class per call, over the index's class values and cumulative
    point sets: no memoized column is read."""

    def __init__(self, metric: MetricSpace, index: CostClassIndex) -> None:
        self._metric = metric
        self.values = index.values
        self._cumulative = [
            np.asarray(cls.cumulative_points, dtype=np.intp) for cls in index.classes
        ]

    def distances(self, point: int) -> Tuple[float, ...]:
        return tuple(self._metric.nearest_distance(point, points) for points in self._cumulative)

    def nearest_point_of_class(self, index: int, point: int) -> Tuple[int, float]:
        return self._metric.nearest(point, self._cumulative[index - 1])

    def cheapest_open_option(self, point: int) -> Tuple[int, float]:
        best_index, best_value = 1, float("inf")
        for index, value in enumerate(self.values, start=1):
            option = value + self._metric.nearest_distance(point, self._cumulative[index - 1])
            if option < best_value:
                best_index, best_value = index, option
        return best_index, best_value


class ReferenceRandOMFLPAlgorithm(RandOMFLPAlgorithm):
    """RAND-OMFLP answering its class-distance queries by :class:`ScanCostClasses`."""

    def prepare(self, instance: Instance, state, rng) -> None:
        super().prepare(instance, state, rng)
        self._scans: Dict[Any, ScanCostClasses] = {}

    def _classes_for(self, configuration) -> ScanCostClasses:
        scans = self._scans.get(configuration)
        if scans is None:
            index = super()._classes_for(configuration)
            scans = self._scans[configuration] = ScanCostClasses(self._instance.metric, index)
        return scans


# ---------------------------------------------------------------------------
# Offline greedy and the assignment DP
# ---------------------------------------------------------------------------
class ReferenceGreedyOfflineSolver(GreedyOfflineSolver):
    """The greedy rounds as a plain loop over every (point, configuration) candidate."""

    def _choose(self, instance: Instance) -> List[Tuple[int, FrozenSet[int]]]:
        requests = instance.requests
        metric = instance.metric
        cost_function = instance.cost_function

        points = (
            list(self._candidate_points)
            if self._candidate_points is not None
            else sorted({r.point for r in requests})
        )
        configurations = candidate_configurations(instance)

        # Pre-compute distances from every request to every candidate point.
        distance = np.vstack([metric.distances_between(r.point, points) for r in requests])

        uncovered: Set[Tuple[int, int]] = {
            (request.index, commodity)
            for request in requests
            for commodity in request.commodities
        }
        chosen: List[Tuple[int, FrozenSet[int]]] = []
        # Requests already paying a connection to a chosen facility at a point
        # do not pay again when another commodity is covered from the same
        # point, mirroring the distinct-facility connection cost.
        connected_points: Dict[int, Set[int]] = {request.index: set() for request in requests}

        while uncovered:
            best: Optional[Tuple[float, int, FrozenSet[int], Set[Tuple[int, int]]]] = None
            for point_index, point in enumerate(points):
                for config in configurations:
                    covered_now = {
                        (r_index, commodity)
                        for (r_index, commodity) in uncovered
                        if commodity in config
                    }
                    if not covered_now:
                        continue
                    opening = cost_function.cost(point, config)
                    connection = 0.0
                    for r_index in sorted({r for (r, _) in covered_now}):
                        if point not in connected_points[r_index]:
                            connection += float(distance[r_index, point_index])
                    ratio = (opening + connection) / len(covered_now)
                    if best is None or ratio < best[0] - 1e-15:
                        best = (ratio, point, config, covered_now)
            if best is None:
                raise AlgorithmError("greedy solver could not cover all demands")
            _, point, config, covered_now = best
            chosen.append((point, config))
            uncovered -= covered_now
            for r_index in sorted({r for (r, _) in covered_now}):
                connected_points[r_index].add(point)
        return chosen


def reference_optimal_assignment(
    metric: MetricSpace, request: Request, facilities: Sequence[Facility]
) -> Tuple[Assignment, float]:
    """:func:`~repro.algorithms.offline.common.optimal_assignment`, asking the
    metric again for each (commodity, chosen facility) distance."""
    demanded = sorted(request.commodities)
    k = len(demanded)
    if k > offline_common._MAX_DEMAND_FOR_DP:
        raise InfeasibleSolutionError(
            f"request {request.index} demands {k} commodities; the exact assignment DP "
            f"supports at most {offline_common._MAX_DEMAND_FOR_DP}"
        )
    index_of = {commodity: i for i, commodity in enumerate(demanded)}
    full_mask = (1 << k) - 1

    useful: List[Tuple[Facility, int, float]] = []
    for facility in facilities:
        mask = 0
        for commodity in facility.configuration & request.commodities:
            mask |= 1 << index_of[commodity]
        if mask:
            useful.append((facility, mask, metric.distance(request.point, facility.point)))
    coverable = 0
    for _, mask, _ in useful:
        coverable |= mask
    if coverable != full_mask:
        missing = [demanded[i] for i in range(k) if not (coverable >> i) & 1]
        raise InfeasibleSolutionError(
            f"request {request.index}: commodities {missing} are offered by no open facility"
        )

    INF = float("inf")
    dp = np.full(1 << k, INF, dtype=np.float64)
    dp[0] = 0.0
    choice: List[Optional[Tuple[int, int]]] = [None] * (1 << k)  # mask -> (facility idx, prev mask)
    for mask in range(1 << k):
        if dp[mask] == INF:
            continue
        for idx, (facility, fmask, distance) in enumerate(useful):
            new_mask = mask | fmask
            if new_mask == mask:
                continue
            new_cost = dp[mask] + distance
            if new_cost < dp[new_mask] - 1e-15:
                dp[new_mask] = new_cost
                choice[new_mask] = (idx, mask)

    if dp[full_mask] == INF:
        raise InfeasibleSolutionError(f"request {request.index} cannot be covered")

    # Reconstruct the chosen facilities and build the assignment.
    chosen: List[Facility] = []
    mask = full_mask
    while mask:
        entry = choice[mask]
        if entry is None:
            break
        idx, previous = entry
        chosen.append(useful[idx][0])
        mask = previous
    assignment = Assignment(request_index=request.index)
    for commodity in demanded:
        best_facility = None
        best_distance = INF
        for facility in chosen:
            if facility.offers(commodity):
                distance = metric.distance(request.point, facility.point)
                if distance < best_distance:
                    best_facility, best_distance = facility, distance
        if best_facility is None:
            raise InfeasibleSolutionError(
                f"request {request.index}: reconstruction lost commodity {commodity}"
            )
        assignment.assign(commodity, best_facility.id)
    return assignment, float(dp[full_mask])


# ---------------------------------------------------------------------------
# The object request log and the recomputing finalize
# ---------------------------------------------------------------------------
def reference_connection_cost(
    assignment: Assignment, request: Request, facilities: Mapping[int, Facility], metric: MetricSpace
) -> float:
    """:meth:`Assignment.connection_cost` as a plain loop over the frozenset."""
    total = 0.0
    for facility_id in assignment.facility_ids():
        facility = facilities[facility_id]
        total += metric.distance(request.point, facility.point)
    return total


class ObjectLogState(OnlineState):
    """An online state keeping its log as ``Request`` and ``Assignment`` objects."""

    def __init__(self, instance: Instance, *, trace=None) -> None:
        super().__init__(instance, trace=trace)
        self._assignments: Dict[int, Assignment] = {}
        self._processed_requests: List[Request] = []

    @property
    def num_recorded(self) -> int:
        return len(self._processed_requests)

    @property
    def processed_requests(self) -> List[Request]:
        return list(self._processed_requests)

    def assignment_of(self, request_index: int) -> Assignment:
        return self._assignments[request_index]

    def facility_ids_of(self, request_index: int) -> Tuple[int, ...]:
        return tuple(sorted(self._assignments[request_index].facility_ids()))

    def record_assignment(self, request: Request, assignment: Assignment) -> None:
        if request.index in self._assignments:
            raise AlgorithmError(f"request {request.index} was assigned twice")
        facilities = self._store.facility_map()
        assignment.validate(request, facilities)
        self._assignments[request.index] = assignment
        self._processed_requests.append(request)
        connection = reference_connection_cost(
            assignment, request, facilities, self._instance.metric
        )
        self._connection_cost += connection
        if self._trace.enabled:
            self._trace.record(
                RequestAssignedEvent(
                    request_index=request.index,
                    facility_ids=tuple(sorted(assignment.facility_ids())),
                    connection_cost=connection,
                    via_large=assignment.uses_single_facility()
                    and facilities[next(iter(assignment.facility_ids()))].configuration
                    == self._full_set,
                )
            )

    def state_dict(self) -> Dict[str, Any]:
        """The format-2 snapshot, written from the objects."""
        pairs = [
            list(self._assignments[r.index].facility_of_commodity.items())
            for r in self._processed_requests
        ]
        return {
            "store": self._store.state_dict(),
            "log": {
                "points": [r.point for r in self._processed_requests],
                "counts": [len(items) for items in pairs],
                "commodities": [int(e) for items in pairs for e, _ in items],
                "facilities": [int(fid) for items in pairs for _, fid in items],
            },
            "trace": self._trace.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Replay a snapshot of either format by re-recording every request.

        A format-2 request demands the commodities its pairs serve.
        """
        if self._processed_requests or len(self._store):
            raise SnapshotError(
                "OnlineState.load_state_dict requires a fresh state; this one "
                f"already processed {len(self._processed_requests)} requests"
            )
        if "log" in state:
            log, rows, stop = state["log"], [], 0
            for point, count in zip(log["points"], log["counts"]):
                start, stop = stop, stop + count
                items = list(zip(log["commodities"][start:stop], log["facilities"][start:stop]))
                rows.append((point, sorted(e for e, _ in items), items))
        else:
            requests, assignments = state["requests"], state["assignments"]
            if len(requests) != len(assignments):
                raise SnapshotError(
                    f"OnlineState snapshot has {len(requests)} requests but "
                    f"{len(assignments)} assignments"
                )
            rows = [
                (point, commodities, items)
                for (point, commodities), items in zip(requests, assignments)
            ]
        self._store.load_state_dict(state["store"])
        enabled = self._trace.enabled
        self._trace.enabled = False
        try:
            for index, (point, commodities, items) in enumerate(rows):
                request = Request(
                    index=index,
                    point=int(point),
                    commodities=frozenset(int(e) for e in commodities),
                )
                self._instance.validate_request(request)
                assignment = Assignment(request_index=index)
                for commodity, facility_id in items:
                    assignment.assign(int(commodity), int(facility_id))
                self.record_assignment(request, assignment)
        finally:
            self._trace.enabled = enabled
        self._trace.load_state_dict(state["trace"])

    def to_solution(self) -> Solution:
        return Solution(
            self._instance.metric,
            self._instance.num_commodities,
            self._store.facilities,
            self._assignments.values(),
        )


def v1_state_dict(state: Mapping[str, Any]) -> Dict[str, Any]:
    """A format-2 :meth:`OnlineState.state_dict` as format 1 wrote it.

    Per request, ``requests`` holds ``[point, sorted commodities]`` and
    ``assignments`` its ``[commodity, facility]`` pairs in ``assign`` order.
    The store and the trace are copied unchanged.
    """
    log = state["log"]
    requests, assignments, stop = [], [], 0
    for point, count in zip(log["points"], log["counts"]):
        start, stop = stop, stop + count
        served = log["commodities"][start:stop]
        requests.append([point, sorted(served)])
        assignments.append(list(map(list, zip(served, log["facilities"][start:stop]))))
    return {
        "store": copy.deepcopy(state["store"]),
        "requests": requests,
        "assignments": assignments,
        "trace": copy.deepcopy(state["trace"]),
    }


def v1_snapshot(data: Mapping[str, Any]) -> Dict[str, Any]:
    """A version-2 session snapshot dictionary as version 1 wrote it."""
    return {**copy.deepcopy(dict(data)), "state": v1_state_dict(data["state"]), "version": 1}


def reference_finalize(state: OnlineState, *, validate: bool = True) -> CostBreakdown:
    """The cost breakdown recomputed from the frozen solution, request by request.

    With ``validate``, every request's assignment is validated first
    (:meth:`Solution.validate`).
    """
    requests = RequestSequence(state.processed_requests)
    solution = state.to_solution()
    if validate:
        solution.validate(requests)
    facilities = {f.id: f for f in solution.facilities}
    full = frozenset(range(state.instance.num_commodities))
    opening_small = sum(
        f.opening_cost for f in facilities.values() if f.configuration != full
    )
    opening_large = sum(
        f.opening_cost for f in facilities.values() if f.configuration == full
    )
    connection = 0.0
    for request in requests:
        connection += reference_connection_cost(
            solution.assignment_for(request.index), request, facilities, state.instance.metric
        )
    return CostBreakdown(
        opening_small=opening_small, opening_large=opening_large, connection=connection
    )


@contextlib.contextmanager
def object_log() -> Iterator[None]:
    """Within the block, new sessions keep their log in an :class:`ObjectLogState`."""
    original = session_module.OnlineState
    session_module.OnlineState = ObjectLogState
    try:
        yield
    finally:
        session_module.OnlineState = original


# ---------------------------------------------------------------------------
# The streaming offline bound and the reservoir sample
# ---------------------------------------------------------------------------
class ReferenceOfflineBound(IncrementalOfflineBound):
    """The streaming lower bound deciding arrivals from a seen-point memo and
    the minimum distance to the anchors.

    The first arrival of a ``(commodity, point)`` pair compares
    ``np.min(metric.distances_between(point, anchors))`` with ``2·f_e``; a
    per-commodity set of seen points skips its repeats, and a load empties
    it.  No point is range-checked.
    """

    def __init__(self, metric: MetricSpace, cost, *, anchor_cap: int = 256) -> None:
        super().__init__(metric, cost, anchor_cap=anchor_cap)
        self._seen_points: Dict[int, Set[int]] = {}

    def update_many(self, arrivals) -> float:
        for arrival in arrivals:
            point = arrival.point
            self._num_requests += 1
            for commodity in arrival.commodities:
                seen = self._seen_points.setdefault(commodity, set())
                if point in seen:
                    continue
                seen.add(point)
                f_e = self._singleton_cost(commodity)
                if f_e <= 0.0:
                    continue
                anchors = self._anchors[commodity]
                if len(anchors) >= self._anchor_cap:
                    continue
                if anchors:
                    separation = float(np.min(self._metric.distances_between(point, anchors)))
                    if separation <= 2.0 * f_e:
                        continue
                anchors.append(int(point))
                candidate = len(anchors) * f_e
                if candidate > self._bound:
                    self._bound = candidate
        return self._bound

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        super().load_state_dict(state)
        self._seen_points = {}


class ReferenceReservoirSampler(ReservoirSampler):
    """Algorithm L one value at a time: every arrival index is compared with
    the next replacement index."""

    def add_many(self, values: Sequence[float]) -> None:
        for value in values:
            index = self._count
            self._count += 1
            if not self._filled:
                self._values.append(value)
                if len(self._values) == self._capacity:
                    self._filled = True
                    self._advance_skip(index)
            elif index == self._next_replacement:
                slot = int(self._rng.integers(0, self._capacity))
                self._values[slot] = value
                self._advance_skip(index)


# ---------------------------------------------------------------------------
# Running the oracle
# ---------------------------------------------------------------------------
#: (module, global name, reference substitute) patched by reference_scans().
_SUBSTITUTES = (
    (state_module, "FacilityStore", ScanFacilityStore),
    (per_commodity, "SingleCommodityPrimalDual", ReferencePrimalDual),
    (per_commodity, "SingleCommodityMeyerson", ReferenceMeyerson),
    (local_search, "GreedyOfflineSolver", ReferenceGreedyOfflineSolver),
    (offline_common, "optimal_assignment", reference_optimal_assignment),
)


@contextlib.contextmanager
def reference_scans() -> Iterator[None]:
    """Within the block, new online states and helpers, the local search's greedy
    start and the offline assignments use the reference scans."""
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
