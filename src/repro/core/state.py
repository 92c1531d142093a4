"""Mutable run-time state shared by all online algorithms.

:class:`OnlineState` owns the facility store, the log of recorded
assignments and the event trace of one online run.  Algorithms interact with
it through a small set of verbs — ``open_facility``, ``assign``, distance
queries — and the runner converts the final state into an immutable
:class:`~repro.core.solution.Solution`.

Keeping this state in one place guarantees that every algorithm is charged
costs in exactly the same way (the cost model lives here, not in each
algorithm), which is essential for fair competitive-ratio comparisons.

Pricing
-------
A request pays the sum of the distances to its distinct facilities (Section
1.1), summed from ``0.0`` in the order of their id frozenset, as
:meth:`Assignment.connection_cost` sums.  Each distance comes from
:meth:`FacilityStore.connection_distance`.  When the facility is the nearest
one that the store's trackers hold for the request point, the tracked
minimum is the distance, bit for bit; any other facility reads
``metric.distance``.  An algorithm that connects to the nearest facility
(Meyerson's always does) is then charged without a metric call.  Before
pricing, the assignment is screened on ints; what the screen rejects goes
through :meth:`Assignment.validate`, so the errors are the object checks'.

The log
-------
Assignments are irrevocable (Section 1.1), so a request's connection cost is
fixed once it is recorded.  :meth:`OnlineState.record_assignment` checks
the assignment against the open facilities, adds its cost to a running total
and copies it into flat int64 arrays: per request its index and point, and
its ``(commodity, facility)`` pairs in the order the algorithm assigned them,
with offsets into the pair arrays: about 50 bytes per single-commodity
request, against about 760 for ``Request`` and ``Assignment`` objects.
Objects are built only on demand (:meth:`~OnlineState.assignment_of`,
:attr:`~OnlineState.processed_requests`, :meth:`~OnlineState.to_solution`).

Snapshots
---------
:meth:`~OnlineState.state_dict` writes the log as the arrays hold it: four
flat JSON integer lists, ``points`` and ``counts`` (pairs per request) with
one entry per request, ``commodities`` and ``facilities`` with one per pair
(snapshot format 2).  A request's demand is the set of commodities its pairs
serve, which recording checked.  Flat lists come straight from the arrays
with ``tolist()`` and parse back with the C JSON decoder.  Format 1 wrote
one list per request and per pair: on a 512-request log that took about
four times as long to write, encode, decode and parse, in a file 60% larger.
Base64 int64 columns would be faster still, but larger than either and
read by a second decoder.

:meth:`~OnlineState.load_state_dict` rebuilds the log from a snapshot in one
array pass instead of re-recording every request.  Format 1 rows become the
same columns, so one screen serves both formats.  It type-checks each column
once and converts it to an int64 array once; the screen, the distance gather
and the rebuilt log share these arrays.  The screen checks every row with
vectorized checks; a row that fails gets the object-level checks again, so
the error is the one re-recording it would raise.  The facility replay reads
each facility's distance column once: the facility's trackers fold it, and
the pairs that facility serves read it at their request points.  The
per-request costs fold from those distances in arrival order, which gives
the running total bit for bit.  A refused snapshot changes nothing.  A
snapshot writes no request index, so a log recorded out of arrival order is
refused when it is written.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.facility import Facility, FacilityStore
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.solution import Solution
from repro.core.trace import FacilityOpenedEvent, RequestAssignedEvent, Trace
from repro.exceptions import AlgorithmError, InfeasibleSolutionError, SnapshotError
from repro.utils.validation import (
    snapshot_commodities,
    snapshot_field,
    snapshot_int,
    snapshot_list,
)

__all__ = ["OnlineState", "log_layout"]

#: The four columns of a format-2 snapshot log, in the order they are written.
_LOG_COLUMNS = ("points", "counts", "commodities", "facilities")

#: Per snapshot format, the templates naming a log row's request and its
#: pairs in the errors of the row checks.
_ROW_NAMES = {
    1: ("snapshot requests[{}]", "snapshot assignments[{}]"),
    2: ("snapshot log row {}", "snapshot log row {}"),
}


class _Log:
    """Recorded requests as flat int64 arrays, one row per request.

    Row ``k`` holds ``indices[k]``, ``points[k]`` and the request's
    ``(commodity, facility)`` pairs at ``offsets[k]:offsets[k + 1]`` of
    ``commodities`` / ``facilities``, in ``assign`` order.  Rows are only
    ever appended, whole or not at all.
    """

    __slots__ = ("indices", "points", "offsets", "commodities", "facilities")

    def __init__(self) -> None:
        self.indices = array("q")
        self.points = array("q")
        self.offsets = array("q", [0])
        self.commodities = array("q")
        self.facilities = array("q")

    def __len__(self) -> int:
        return len(self.points)

    def append(self, index: int, point: int, pairs: Mapping[int, int]) -> None:
        """Append one row; a value the int64 columns refuse appends nothing.

        ``Assignment.validate`` compares ids with ``==``, so a float id such
        as ``0.0`` passes it; the column's own conversion is the check.
        """
        facilities = self.facilities
        try:
            self.commodities.extend(pairs)
            facilities.extend(pairs.values())
            self.indices.append(index)
            self.points.append(point)
        except (TypeError, OverflowError):
            start, row = self.offsets[-1], len(self.offsets) - 1
            del self.commodities[start:], facilities[start:]
            del self.indices[row:], self.points[row:]
            raise InfeasibleSolutionError(
                f"request {index}: the log takes 64-bit integer ids only, got the "
                f"(commodity, facility id) pairs {dict(pairs)!r}"
            ) from None
        self.offsets.append(len(facilities))

    def assignment(self, row: int) -> Assignment:
        start, stop = self.offsets[row], self.offsets[row + 1]
        return Assignment(
            self.indices[row],
            dict(zip(self.commodities[start:stop], self.facilities[start:stop])),
        )

    def request(self, row: int) -> Request:
        start, stop = self.offsets[row], self.offsets[row + 1]
        return Request(
            index=self.indices[row],
            point=self.points[row],
            commodities=frozenset(sorted(self.commodities[start:stop])),
        )


class _LoggedAssignments:
    """The first ``count`` rows of a log, as ``Assignment`` objects when iterated.

    Rows are only appended, so the view stays fixed while the run goes on;
    it pickles with its log.
    """

    def __init__(self, log: _Log, count: int) -> None:
        self._log = log
        self._count = count

    def __iter__(self) -> Iterator[Assignment]:
        return map(self._log.assignment, range(self._count))


class OnlineState:
    """State of one online execution over a fixed instance.

    Trace events are built only when the trace is enabled: every event
    site, here and in the algorithms, sits behind an ``if
    state.trace.enabled:`` check, and a new one must guard the same way.
    """

    def __init__(self, instance: Instance, *, trace: Optional[Trace] = None) -> None:
        self._instance = instance
        self._store = FacilityStore(instance.metric, instance.cost_function)
        self._trace = trace if trace is not None else Trace(enabled=False)
        self._full_set = instance.cost_function.full_set
        self._num_points = instance.num_points
        self._log = _Log()
        # Request index -> log row, built only once a request is recorded
        # out of arrival order; until then row k is request k.
        self._rows: Optional[Dict[int, int]] = None
        # The sorted facility ids of the last recorded request, for the
        # session's event (see facility_ids_of).
        self._last_index = -1
        self._last_facility_ids: Tuple[int, ...] = ()
        # Connection cost accumulated assignment by assignment.  Assignments
        # are irrevocable, so each request's connection cost is fixed the
        # moment it is recorded; summing incrementally in arrival order (the
        # order Solution.connection_cost uses) gives the batch total bit for
        # bit without an end-of-run recomputation.
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
    def num_recorded(self) -> int:
        """Number of requests recorded so far."""
        return len(self._log)

    @property
    def processed_requests(self) -> List[Request]:
        """Requests processed so far, in arrival order (the paper's current ``R``).

        Rebuilt from the log; each request's commodity set is the set its
        assignment serves, which recording checked equals its demand.
        """
        return [self._log.request(row) for row in range(len(self._log))]

    def assignment_of(self, request_index: int) -> Assignment:
        """The recorded assignment of a request (a new object on every call)."""
        return self._log.assignment(self._row(request_index))

    def facility_ids_of(self, request_index: int) -> Tuple[int, ...]:
        """Sorted ids of the distinct facilities a recorded request is connected to."""
        if request_index == self._last_index:
            return self._last_facility_ids
        return tuple(sorted(self.assignment_of(request_index).facility_ids()))

    def _row(self, request_index: int) -> int:
        """The log row of a recorded request; ``KeyError`` if it has none."""
        if self._rows is None:
            if 0 <= request_index < len(self._log):
                return request_index
            raise KeyError(request_index)
        return self._rows[request_index]

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
        """Finalize the (irrevocable) assignment of ``request``.

        The assignment is screened on ints: the request index matches, the
        served commodities are the demanded ones, and each facility is open
        and offers the commodity it serves.  Its connection cost sums
        :meth:`FacilityStore.connection_distance` over its distinct
        facilities, from ``0.0`` in the order of their id frozenset: bit for
        bit :meth:`Assignment.connection_cost`, with no metric call for a
        facility that is the tracked nearest one.  An assignment the screen
        rejects, or a request at an unknown point, goes through
        :meth:`Assignment.validate` and :meth:`Assignment.connection_cost`,
        which raise what they always raised.  The pairs are copied into the
        log, so later changes to the ``Assignment`` object do not reach it.
        The copy comes before any charge: an id the log's int64 columns
        refuse, such as the float ``0.0`` that ``validate`` lets through,
        raises :class:`InfeasibleSolutionError` and leaves the state as it
        was.
        """
        index = request.index
        log = self._log
        row = len(log.points)
        rows = self._rows
        if rows is None and index != row:
            # Out of arrival order (rare): index the rows by request from now on.
            rows = self._rows = dict(zip(log.indices, range(row)))
        if rows is not None and index in rows:
            raise AlgorithmError(f"request {index} was assigned twice")
        store = self._store
        pairs = assignment.facility_of_commodity
        point = request.point
        commodity_of = self._screen(request, assignment)
        if commodity_of is not None:
            ids = frozenset(pairs.values())
            connection = 0.0
            for facility_id in ids:
                connection += store.connection_distance(
                    facility_id, commodity_of[facility_id], point
                )
        else:
            facilities = store.facility_map()
            assignment.validate(request, facilities)
            connection = assignment.connection_cost(request, facilities, self._instance.metric)
            ids = assignment.facility_ids()
        log.append(index, point, pairs)
        self._connection_cost += connection
        if rows is not None:
            rows[index] = row
        facility_ids = tuple(sorted(ids))
        self._last_index = index
        self._last_facility_ids = facility_ids
        if self._trace.enabled:
            self._trace.record(
                RequestAssignedEvent(
                    request_index=index,
                    facility_ids=facility_ids,
                    connection_cost=connection,
                    via_large=len(facility_ids) == 1
                    and store[facility_ids[0]].configuration == self._full_set,
                )
            )

    def _screen(self, request: Request, assignment: Assignment) -> Optional[Dict[int, int]]:
        """Each facility of a feasible assignment, mapped to a commodity it serves.

        :meth:`Assignment.validate` on ints, without building its messages,
        plus the metric's range check of the request point.  ``None`` when a
        check fails, or when a facility id is not a plain ``int``.
        """
        pairs = assignment.facility_of_commodity
        if not (
            assignment.request_index == request.index
            and pairs.keys() == request.commodities
            and 0 <= request.point < self._num_points
        ):
            return None
        # The store's own list, read once (its __len__ and __getitem__ are
        # a Python call each); the screen only reads it.
        facilities = self._store._facilities
        num_open = len(facilities)
        commodity_of: Dict[int, int] = {}
        for commodity, facility_id in pairs.items():
            if not (
                type(facility_id) is int
                and 0 <= facility_id < num_open
                and commodity in facilities[facility_id].configuration
            ):
                return None
            commodity_of[facility_id] = commodity
        return commodity_of

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

    def current_costs(self) -> Tuple[float, float]:
        """``(opening cost, connection cost)`` so far, read in one call."""
        return self._store.total_opening_cost, self._connection_cost

    def _request_costs(self, distance: np.ndarray) -> np.ndarray:
        """Each logged request's connection cost, folded from ``distance``, the
        distance of each ``(commodity, facility)`` pair in log order.

        A request served by one facility costs ``0.0 + d``; by two, ``0.0 +
        d1 + d2`` in either order (addition is commutative).  Only rows of
        two pairs or more are grouped by facility.  By three facilities or
        more (rare), the order matters: the distances are summed from
        ``0.0`` in the order of the row's facility-id frozenset, built from
        its pairs in ``assign`` order, as :meth:`Assignment.connection_cost`
        charged it live.  Bit for bit the live charge, since
        ``distances_to(q)[p] == distance(p, q)``.
        """
        log = self._log
        # Views of the log's own buffers; they die with this call.
        offsets = np.frombuffer(log.offsets, dtype=np.int64)
        facilities = np.frombuffer(log.facilities, dtype=np.int64)
        counts = np.diff(offsets)
        costs = np.zeros(len(counts), dtype=np.float64)
        single = counts == 1
        costs[single] += distance[offsets[:-1][single]]
        shared = counts >= 2
        multi = np.flatnonzero(shared)
        if not multi.size:
            return costs
        pairs = np.flatnonzero(np.repeat(shared, counts))
        rows = np.repeat(multi, counts[multi])
        # One pair per distinct (request, facility), grouped by request.
        grouped = np.lexsort((facilities[pairs], rows))
        pairs, rows = pairs[grouped], rows[grouped]
        ids = facilities[pairs]
        first = np.ones(len(pairs), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (ids[1:] != ids[:-1])
        pairs = pairs[first]
        num_distinct = np.bincount(rows[first], minlength=len(counts))
        heads = np.cumsum(num_distinct) - num_distinct
        costs[multi] += distance[pairs[heads[multi]]]
        two = np.flatnonzero(num_distinct == 2)
        costs[two] += distance[pairs[heads[two] + 1]]
        for row in np.flatnonzero(num_distinct >= 3).tolist():
            start, stop = log.offsets[row], log.offsets[row + 1]
            distance_of = dict(zip(log.facilities[start:stop], distance[start:stop].tolist()))
            total = 0.0
            for facility_id in log.assignment(row).facility_ids():
                total += distance_of[facility_id]
            costs[row] = total
        return costs

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def _unserved(
        self, store: FacilityStore, facilities: np.ndarray, commodities: np.ndarray
    ) -> np.ndarray:
        """Mask of pairs whose facility is not open in ``store`` or does not
        offer the commodity."""
        opened = store._facilities
        offers = np.zeros((len(opened), self._instance.num_commodities), dtype=bool)
        # One scatter: each facility's id repeated once per offered commodity.
        offers[
            np.repeat(
                np.fromiter((facility.id for facility in opened), np.intp, len(opened)),
                [len(facility.configuration) for facility in opened],
            ),
            np.fromiter(chain.from_iterable(f.configuration for f in opened), np.intp),
        ] = True
        known = (
            (facilities >= 0)
            & (facilities < offers.shape[0])
            & (commodities >= 0)
            & (commodities < offers.shape[1])
        )
        served = np.zeros(len(facilities), dtype=bool)
        served[known] = offers[facilities[known], commodities[known]]
        return ~served

    def validate_log(self) -> None:
        """Raise :class:`InfeasibleSolutionError` unless the log is feasible.

        One vectorized pass: every request sits at a point of the metric,
        and every logged facility exists and offers the commodity it serves.
        """
        log = self._log
        points = np.array(log.points, dtype=np.int64)
        outside = np.flatnonzero((points < 0) | (points >= self._instance.num_points))
        if outside.size:
            row = int(outside[0])
            raise InfeasibleSolutionError(
                f"request {log.indices[row]} is located at unknown point {log.points[row]}"
            )
        unserved = np.flatnonzero(
            self._unserved(
                self._store,
                np.array(log.facilities, dtype=np.int64),
                np.array(log.commodities, dtype=np.int64),
            )
        )
        if unserved.size:
            pair = int(unserved[0])
            index = log.indices[bisect_right(log.offsets, pair) - 1]
            facility_id, commodity = log.facilities[pair], log.commodities[pair]
            if not 0 <= facility_id < len(self._store):
                raise InfeasibleSolutionError(
                    f"request {index}: facility {facility_id} does not exist"
                )
            raise InfeasibleSolutionError(
                f"request {index}: facility {facility_id} does not offer commodity {commodity}"
            )

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot of facilities, the log and the trace.

        The log is written as the arrays hold it (format 2): ``points`` and
        ``counts`` hold one entry per request, ``commodities`` and
        ``facilities`` one per pair, in the order the algorithm called
        ``assign``.  :meth:`load_state_dict` keeps that order, so the
        frozensets summed over iterate — and the connection costs round —
        exactly as in the original run.

        No request index is written: the restore numbers the rows in arrival
        order.  So a log recorded out of that order raises
        :class:`SnapshotError` naming its first request out of place.
        """
        log = self._log
        if self._rows is not None:
            for row, index in enumerate(log.indices):
                if index != row:
                    raise SnapshotError(
                        "cannot snapshot a log recorded out of arrival order: request "
                        f"{index} was recorded as request number {row}"
                    )
        return {
            "store": self._store.state_dict(),
            "log": {
                "points": log.points.tolist(),
                "counts": np.diff(np.array(log.offsets, dtype=np.int64)).tolist(),
                "commodities": log.commodities.tolist(),
                "facilities": log.facilities.tolist(),
            },
            "trace": self._trace.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Rebuild the state from a snapshot of either format in one array pass.

        Facilities are re-opened in id order (recharging identical opening
        costs and refolding the accel trackers in the original sequence).
        The log is parsed into columns and screened.  Values that are not
        JSON integers or lists and columns of the wrong length raise
        :class:`SnapshotError` naming the column (format 2) or the row and
        field (format 1), a repeated commodity names its row, and
        out-of-range values raise what re-recording the row would.  The
        connection cost is re-accumulated in arrival order from the
        distances the replay gathers: each facility's column is read once,
        for its trackers and for the requests it serves.  Requires a
        fresh state, which a refused snapshot leaves fresh; the trace is
        restored verbatim from the snapshot.
        """
        if len(self._log) or len(self._store):
            raise SnapshotError(
                "OnlineState.load_state_dict requires a fresh state; this one "
                f"already processed {len(self._log)} requests"
            )
        layout = log_layout(state)
        if layout == 1:
            requests, assignments = _row_lists(state)
            lists = _columns(requests, assignments)
        else:
            lists = _log_columns(snapshot_field(state, "log", "snapshot state"))
        # Each column becomes an int64 array once, read by the screen, the
        # gather and the rebuilt log; a value beyond int64 fails row 0.
        try:
            columns = None if lists is None else tuple(np.array(c, dtype=np.int64) for c in lists)
        except OverflowError:
            columns = None
        store = FacilityStore(self._instance.metric, self._instance.cost_function)
        store_state = snapshot_field(state, "store", "snapshot state")
        if columns is None:
            store.load_state_dict(store_state)
            failing: Optional[int] = 0
        else:
            points, *_, counts, commodities, facilities = columns
            distance = _replay_gathering(
                store._replay(store_state), np.repeat(points, counts), facilities
            )
            offsets = np.zeros(len(points) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            failing = self._first_failing_row(store, columns, offsets)
        trace = snapshot_field(state, "trace", "snapshot state")
        if failing is not None:
            if layout == 2:
                requests, assignments = _column_rows(*lists)
            for row in range(failing, len(requests)):
                self._check_row(store, row, requests[row], assignments[row], _ROW_NAMES[layout])
            raise SnapshotError(
                "snapshot log failed the vectorized screen but passed every row check"
            )
        log = _Log()
        log.indices = array("q", np.arange(len(points), dtype=np.int64).tobytes())
        log.points = array("q", points.tobytes())
        log.offsets = array("q", offsets.tobytes())
        log.commodities = array("q", commodities.tobytes())
        log.facilities = array("q", facilities.tobytes())
        # The last step that can refuse the snapshot; it changes nothing
        # when it does.
        self._trace.load_state_dict(trace)
        self._store, self._log = store, log
        # A 1-D cumsum adds in order, like the live `+=`; a pairwise sum
        # would round differently.
        costs = self._request_costs(distance)
        if len(costs):
            self._connection_cost = float(np.cumsum(costs)[-1])

    def _first_failing_row(
        self, store: FacilityStore, columns: Tuple[np.ndarray, ...], offsets: np.ndarray
    ) -> Optional[int]:
        """The first row the object-level checks against ``store`` would
        reject, or ``None``.

        ``columns`` are the int64 log columns of either format (format 1
        has the demand counts and commodities after the points) and
        ``offsets`` the rows' bounds in the pair columns.
        """
        points, *demand, counts, commodities, facilities = columns
        num_rows = len(points)
        bad = (points < 0) | (points >= self._instance.num_points)
        if demand:
            # Format 1 writes each demand apart from its pairs.  A format-2
            # request demands what its pairs serve, so it cannot fail these.
            demand_counts, demanded = demand
            num_commodities = self._instance.num_commodities
            demand_rows = np.repeat(np.arange(num_rows), demand_counts)
            pair_rows = np.repeat(np.arange(num_rows), counts)
            bad |= (demand_counts == 0) | (demand_counts != counts)
            known = (demanded >= 0) & (demanded < num_commodities)
            bad[demand_rows[~known]] = True
            bad[_repeated_rows(demand_rows, demanded)] = True
            # With no repeats and equal counts, the served set equals the
            # demanded set when every served commodity is demanded.
            demanded_keys = (demand_rows * num_commodities + demanded)[known]
            served_keys = pair_rows * num_commodities + commodities
            bad[pair_rows[~np.isin(served_keys, demanded_keys)]] = True
        # Only a row of two pairs or more can repeat a commodity.
        shared = counts >= 2
        pairs = np.flatnonzero(np.repeat(shared, counts))
        multi = np.flatnonzero(shared)
        bad[_repeated_rows(np.repeat(multi, counts[multi]), commodities[pairs])] = True
        unserved = np.flatnonzero(self._unserved(store, facilities, commodities))
        bad[np.searchsorted(offsets, unserved, side="right") - 1] = True
        failing = np.flatnonzero(bad)
        return int(failing[0]) if failing.size else None

    def _check_row(
        self, store: FacilityStore, row: int, entry: Any, items: Any, names: Tuple[str, str]
    ) -> None:
        """The checks re-recording one snapshot row runs, on objects; raises if it is bad.

        ``entry`` is the row's ``[point, demand]`` and ``items`` its
        ``[commodity, facility id]`` pairs; ``names`` are the templates
        naming the two in the errors.
        """
        where = names[0].format(row)
        point, demand = snapshot_list(entry, where, 2)
        request = Request(
            index=row,
            point=snapshot_int(point, f"{where} point"),
            commodities=frozenset(snapshot_commodities(demand, f"{where} commodities")),
        )
        self._instance.validate_request(request)
        where = names[1].format(row)
        assignment = Assignment(request_index=row)
        for position, pair in enumerate(snapshot_list(items, where)):
            commodity, facility_id = snapshot_list(pair, f"{where}[{position}]", 2)
            commodity = snapshot_int(commodity, f"{where}[{position}] commodity")
            if commodity in assignment.facility_of_commodity:
                raise SnapshotError(f"{where} repeats commodity {commodity}")
            assignment.assign(
                commodity, snapshot_int(facility_id, f"{where}[{position}] facility id")
            )
        assignment.validate(request, store.facility_map())

    # ------------------------------------------------------------------
    def to_solution(self) -> Solution:
        """Freeze the state into an immutable solution.

        Its assignments are the requests recorded so far, built as objects
        only when the solution is asked for them.
        """
        return Solution(
            self._instance.metric,
            self._instance.num_commodities,
            self._store.facilities,
            _LoggedAssignments(self._log, len(self._log)),
        )


def log_layout(state: Any) -> Optional[int]:
    """The snapshot format of an :meth:`OnlineState.state_dict`'s log.

    2 for a ``log`` of columns, 1 for ``requests`` and ``assignments`` rows,
    ``None`` for neither or for a state that is not a JSON object.
    """
    if not isinstance(state, Mapping):
        return None
    if "log" in state:
        return 2
    if "requests" in state or "assignments" in state:
        return 1
    return None


def _is_all(values: Iterable[Any], kind: type) -> bool:
    return set(map(type, values)) <= {kind}


def _log_columns(log: Any) -> Tuple[List[int], List[int], List[int], List[int]]:
    """A format-2 log's ``(points, counts, commodities, facilities)``.

    Each column must be a JSON list of integers; a value of another type
    raises :class:`SnapshotError` naming the column and its position.  The
    lengths must agree: a count per point, at least 1 each, summing to the
    number of ``(commodity, facility)`` pairs.
    """
    columns = []
    for name in _LOG_COLUMNS:
        where = f"snapshot log {name}"
        column = snapshot_list(snapshot_field(log, name, "snapshot log"), where)
        if not _is_all(column, int):
            position = next(i for i, value in enumerate(column) if type(value) is not int)
            snapshot_int(column[position], f"{where}[{position}]")
        columns.append(column)
    points, counts, commodities, facilities = columns
    if len(points) != len(counts):
        raise SnapshotError(f"snapshot log has {len(points)} points but {len(counts)} counts")
    if len(commodities) != len(facilities):
        raise SnapshotError(
            f"snapshot log has {len(commodities)} commodities but {len(facilities)} facilities"
        )
    if counts and min(counts) < 1:
        position = next(i for i, count in enumerate(counts) if count < 1)
        raise SnapshotError(
            f"snapshot log counts[{position}] must be at least 1, got {counts[position]}"
        )
    if sum(counts) != len(commodities):
        raise SnapshotError(
            f"snapshot log counts sum to {sum(counts)}, but the log has {len(commodities)} pairs"
        )
    return points, counts, commodities, facilities


def _column_rows(
    points: List[int], counts: List[int], commodities: List[int], facilities: List[int]
) -> Tuple[List[Any], List[Any]]:
    """A format-2 log as format-1 rows, for the row checks: per request
    ``[point, sorted distinct commodities]`` and its ``[commodity, facility]``
    pairs."""
    requests: List[Any] = []
    assignments: List[Any] = []
    stop = 0
    for point, count in zip(points, counts):
        start, stop = stop, stop + count
        served = commodities[start:stop]
        requests.append([point, sorted(set(served))])
        assignments.append(list(map(list, zip(served, facilities[start:stop]))))
    return requests, assignments


def _row_lists(state: Mapping[str, Any]) -> Tuple[List[Any], List[Any]]:
    """A format-1 state's ``requests`` and ``assignments``, one entry per request each."""
    requests = snapshot_list(
        snapshot_field(state, "requests", "snapshot state"), "snapshot requests"
    )
    assignments = snapshot_list(
        snapshot_field(state, "assignments", "snapshot state"), "snapshot assignments"
    )
    if len(requests) != len(assignments):
        raise SnapshotError(
            f"OnlineState snapshot has {len(requests)} requests but "
            f"{len(assignments)} assignments"
        )
    return requests, assignments


def _columns(
    requests: List[Any], assignments: List[Any]
) -> Optional[Tuple[List[int], List[int], List[int], List[int], List[int], List[int]]]:
    """Format-1 rows as flat columns, or ``None`` if any value has the wrong JSON type.

    ``(points, demand counts, demanded commodities, pair counts, pair
    commodities, pair facilities)``, each flat list in row order.
    """
    if not (_is_all(requests, list) and set(map(len, requests)) <= {2}):
        return None
    points = list(map(itemgetter(0), requests))
    demands = list(map(itemgetter(1), requests))
    if not (_is_all(points, int) and _is_all(demands, list)):
        return None
    demanded = list(chain.from_iterable(demands))
    if not (_is_all(demanded, int) and _is_all(assignments, list)):
        return None
    pairs = list(chain.from_iterable(assignments))
    if not (_is_all(pairs, list) and set(map(len, pairs)) <= {2}):
        return None
    pair_commodities = list(map(itemgetter(0), pairs))
    pair_facilities = list(map(itemgetter(1), pairs))
    if not (_is_all(pair_commodities, int) and _is_all(pair_facilities, int)):
        return None
    return (
        points,
        list(map(len, demands)),
        demanded,
        list(map(len, assignments)),
        pair_commodities,
        pair_facilities,
    )


def _replay_gathering(
    replay: Iterator[Tuple[Facility, np.ndarray]], pair_points: np.ndarray, facilities: np.ndarray
) -> np.ndarray:
    """Run a store's replay; each facility's column, read once for its trackers,
    is also read at the request points of the pairs it serves.

    Returns each pair's distance, ``distances_to(facility point)[request
    point]``, in log order.  One argsort groups the pairs by facility, so
    each column takes one fancy index while it is the only one alive (the
    gather does not depend on the order within a group, so the sort need not
    be stable).  A point outside the metric is clipped, and a pair whose
    facility is never opened keeps an undefined value: the screen refuses
    both.
    """
    by_facility = np.argsort(facilities)
    ids = facilities[by_facility]
    at = pair_points[by_facility]
    cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
    starts = [0, *cuts]
    spans = dict(zip(ids[starts].tolist(), zip(starts, [*cuts, len(ids)]))) if len(ids) else {}
    grouped = np.empty(len(ids), dtype=np.float64)
    for facility, column in replay:
        span = spans.get(facility.id)
        if span is not None:
            start, stop = span
            grouped[start:stop] = column.take(at[start:stop], mode="clip")
    distance = np.empty(len(ids), dtype=np.float64)
    distance[by_facility] = grouped
    return distance


def _repeated_rows(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows (with repeats) in which some value occurs twice."""
    order = np.lexsort((values, rows))
    rows, values = rows[order], values[order]
    twice = (rows[1:] == rows[:-1]) & (values[1:] == values[:-1])
    return rows[1:][twice]
