"""Mutable run-time state shared by all online algorithms.

:class:`OnlineState` owns the facility store, the accumulated assignments and
the event trace of one online run.  Algorithms interact with it through a
small set of verbs — ``open_facility``, ``assign``, distance queries — and the
runner converts the final state into an immutable
:class:`~repro.core.solution.Solution`.

Keeping this state in one place guarantees that every algorithm is charged
costs in exactly the same way (the cost model lives here, not in each
algorithm), which is essential for fair competitive-ratio comparisons.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.facility import Facility, FacilityStore
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.solution import Solution
from repro.core.trace import FacilityOpenedEvent, RequestAssignedEvent, Trace
from repro.exceptions import AlgorithmError, SnapshotError

__all__ = ["OnlineState"]


class OnlineState:
    """State of one online execution over a fixed instance.

    Trace events are built only when the trace is enabled: every event
    site, here and in the algorithms, sits behind an ``if
    state.trace.enabled:`` check, and a new one must guard the same way.
    """

    def __init__(self, instance: Instance, *, trace: Optional[Trace] = None) -> None:
        self._instance = instance
        self._store = FacilityStore(instance.metric, instance.cost_function)
        self._assignments: Dict[int, Assignment] = {}
        self._trace = trace if trace is not None else Trace(enabled=False)
        self._full_set = instance.cost_function.full_set
        self._processed_requests: List[Request] = []
        # Connection cost accumulated assignment by assignment.  Assignments
        # are irrevocable, so each request's connection cost is fixed the
        # moment it is recorded; summing incrementally (in arrival order, the
        # same order Solution.connection_cost uses) makes streaming sessions
        # O(1) per request instead of O(n) end-of-run recomputation while
        # staying bit-identical to the batch total.
        self._connection_cost = 0.0

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def instance(self) -> Instance:
        return self._instance

    @property
    def store(self) -> FacilityStore:
        return self._store

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def processed_requests(self) -> List[Request]:
        """Requests processed so far, in arrival order (the paper's current ``R``)."""
        return list(self._processed_requests)

    def assignment_of(self, request_index: int) -> Assignment:
        return self._assignments[request_index]

    # ------------------------------------------------------------------
    # Distance queries (the paper's d(F(e), r) and d(F̂, r))
    # ------------------------------------------------------------------
    def distance_to_nearest(self, commodity: int, point: int) -> float:
        return self._store.distance_to_nearest(commodity, point)

    def distance_to_nearest_large(self, point: int) -> float:
        return self._store.distance_to_nearest_large(point)

    def nearest_offering(self, commodity: int, point: int) -> Optional[Tuple[Facility, float]]:
        return self._store.nearest_offering(commodity, point)

    def nearest_large(self, point: int) -> Optional[Tuple[Facility, float]]:
        return self._store.nearest_large(point)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def open_facility(self, request: Request, point: int, configuration: Iterable[int]) -> Facility:
        """Open a facility while processing ``request`` (charged immediately)."""
        facility = self._store.open(point, configuration)
        if self._trace.enabled:
            self._trace.record(
                FacilityOpenedEvent(
                    request_index=request.index,
                    facility_id=facility.id,
                    point=facility.point,
                    configuration=facility.configuration,
                    opening_cost=facility.opening_cost,
                    is_large=facility.configuration == self._full_set,
                )
            )
        return facility

    def open_large_facility(self, request: Request, point: int) -> Facility:
        """Open a facility offering all of ``S`` at ``point``."""
        return self.open_facility(request, point, self._full_set)

    def record_assignment(self, request: Request, assignment: Assignment) -> None:
        """Finalize the (irrevocable) assignment of ``request``."""
        if request.index in self._assignments:
            raise AlgorithmError(f"request {request.index} was assigned twice")
        facilities = self._store.facility_map()
        assignment.validate(request, facilities)
        self._assignments[request.index] = assignment
        self._processed_requests.append(request)
        connection = assignment.connection_cost(request, facilities, self._instance.metric)
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

    def assign_to_single_facility(self, request: Request, facility: Facility) -> Assignment:
        """Connect every demanded commodity of ``request`` to one facility."""
        if not facility.offers_all(request.commodities):
            raise AlgorithmError(
                f"facility {facility.id} does not offer all commodities of request {request.index}"
            )
        assignment = Assignment(request_index=request.index)
        for commodity in request.commodities:
            assignment.assign(commodity, facility.id)
        self.record_assignment(request, assignment)
        return assignment

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def current_opening_cost(self) -> float:
        return self._store.total_opening_cost

    def current_connection_cost(self) -> float:
        """Connection cost of all assignments so far (incrementally maintained)."""
        return self._connection_cost

    def current_total_cost(self) -> float:
        return self.current_opening_cost() + self.current_connection_cost()

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot of facilities, assignments and trace.

        Assignment entries are stored in their original dict insertion order
        (the order the algorithm called ``assign``), which
        :meth:`load_state_dict` preserves so that rebuilt frozensets iterate
        — and hence connection-cost sums accumulate — in exactly the original
        float order.
        """
        return {
            "store": self._store.state_dict(),
            "requests": [
                [r.point, sorted(r.commodities)] for r in self._processed_requests
            ],
            "assignments": [
                [
                    [int(e), int(fid)]
                    for e, fid in self._assignments[
                        r.index
                    ].facility_of_commodity.items()
                ]
                for r in self._processed_requests
            ],
            "trace": self._trace.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Deterministically rebuild the state by replaying its mutation log.

        Facilities are re-opened in id order (recharging identical opening
        costs and refolding the accel trackers in the original sequence) and
        assignments are re-recorded in arrival order (re-accumulating the
        identical connection-cost sum).  Requires a fresh state; the trace is
        restored verbatim from the snapshot rather than re-recorded.
        """
        if self._processed_requests or len(self._store):
            raise SnapshotError(
                "OnlineState.load_state_dict requires a fresh state; this one "
                f"already processed {len(self._processed_requests)} requests"
            )
        requests, assignments = state["requests"], state["assignments"]
        if len(requests) != len(assignments):
            raise SnapshotError(
                f"OnlineState snapshot has {len(requests)} requests but "
                f"{len(assignments)} assignments"
            )
        self._store.load_state_dict(state["store"])
        enabled = self._trace.enabled
        self._trace.enabled = False
        try:
            for index, ((point, commodities), items) in enumerate(
                zip(requests, assignments)
            ):
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

    # ------------------------------------------------------------------
    def to_solution(self) -> Solution:
        """Freeze the state into an immutable solution."""
        return Solution(
            self._instance.metric,
            self._instance.num_commodities,
            self._store.facilities,
            self._assignments.values(),
        )
