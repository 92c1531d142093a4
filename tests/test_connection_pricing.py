"""Connection pricing from the nearest-facility trackers, against the metric.

``OnlineState.record_assignment`` prices each distinct facility of a request
through ``FacilityStore.connection_distance``: the tracked minimum when the
facility is the tracked nearest one at the request point (for a commodity the
request gets from it, or among the large facilities), ``metric.distance``
otherwise.  ``tests/oracles.py`` keeps the plain ``metric.distance`` loop,
``reference_connection_cost``.  These tests pin, with exact ``==``:

* the charge to the oracle on directed cases (the tracked nearest facility, a
  farther one, a tie assigned to the later-opened facility, large facilities,
  three facilities summed in frozenset order, an asymmetric matrix), with the
  number of metric calls each one makes;
* the charge to the oracle on seeded integer-coordinate instances, where
  ties are common;
* the rejection of an infeasible assignment to ``Assignment.validate``'s
  error, with the state left as it was;
* the rejection of an id the int64 log refuses (a float ``0.0`` passes
  ``validate``), before any charge, while numpy ints and bools still log.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.core.trace import RequestAssignedEvent, Trace
from repro.costs.count_based import PowerCost
from repro.exceptions import InfeasibleSolutionError, InvalidMetricError
from repro.metric.grid import GridMetric
from repro.metric.line import LineMetric
from repro.metric.matrix import ExplicitMetric
from repro.utils.rng import ensure_rng

from oracles import reference_connection_cost


class _CountingDistance:
    """``metric.distance`` that counts its calls."""

    def __init__(self, metric) -> None:
        self.calls = 0
        self._distance = metric.distance

    def __call__(self, a, b):
        self.calls += 1
        return self._distance(a, b)


def _state(metric, num_commodities: int, facilities) -> OnlineState:
    """A traced state over ``metric`` with ``(point, configuration)`` facilities opened in order."""
    instance = Instance(metric, PowerCost(num_commodities, 1.0), RequestSequence([]))
    state = OnlineState(instance, trace=Trace(enabled=True))
    opener = Request(index=0, point=0, commodities=frozenset({0}))
    for point, configuration in facilities:
        state.open_facility(opener, point, configuration)
    return state


def _charge(state: OnlineState, monkeypatch, request: Request, pairs) -> tuple:
    """Record ``request`` and return ``(charged cost, metric.distance calls, oracle cost)``."""
    metric = state.instance.metric
    assignment = Assignment(request.index, dict(pairs))
    expected = reference_connection_cost(
        assignment, request, state.store.facility_map(), metric
    )
    counter = _CountingDistance(metric)
    with monkeypatch.context() as patch:
        patch.setattr(metric, "distance", counter)
        state.record_assignment(request, assignment)
    event = state.trace.events[-1]
    assert isinstance(event, RequestAssignedEvent) and event.request_index == request.index
    return event.connection_cost, counter.calls, expected


# ---------------------------------------------------------------------------
# Directed cases
# ---------------------------------------------------------------------------
# A line whose point 0 is the request point in every case below.
LINE = [0.0, 1.0, 3.0, -1.0, 2.0]

DIRECTED = [
    # (facilities, demand, pairs, metric calls, charge)
    pytest.param([(2, {0}), (1, {0})], {0}, {0: 1}, 0, 1.0, id="tracked-nearest"),
    # No large facility exists, so the large tracker must not be asked.
    pytest.param([(2, {0}), (1, {0})], {0}, {0: 0}, 1, 3.0, id="farther"),
    # Points 1 and 3 are both at distance 1 from point 0: the tracker keeps
    # the earlier-opened facility, and the later one reads the metric.
    pytest.param([(1, {0}), (3, {0})], {0}, {0: 1}, 1, 1.0, id="tie-later-opened"),
    pytest.param([(1, {0}), (3, {0})], {0}, {0: 0}, 0, 1.0, id="tie-earlier-opened"),
    pytest.param(
        [(1, {0, 1}), (2, {0})], {0, 1}, {0: 0, 1: 0}, 0, 1.0, id="large-nearest-for-commodity"
    ),
    # Facility 0 is nearer for commodity 0; facility 1 is the nearest large one.
    pytest.param([(1, {0}), (4, {0, 1})], {0}, {0: 1}, 0, 2.0, id="large-nearest-large"),
    pytest.param(
        [(1, {0}), (4, {0, 1}), (2, {0, 1})], {0}, {0: 2}, 1, 3.0, id="large-not-nearest"
    ),
    pytest.param(
        [(2, {0}), (1, {1}), (4, {0, 1})], {0, 1}, {0: 0, 1: 1}, 1, 4.0, id="two-facilities"
    ),
]


@pytest.mark.parametrize("facilities,demand,pairs,calls,charge", DIRECTED)
def test_directed_charge_equals_oracle(monkeypatch, facilities, demand, pairs, calls, charge):
    state = _state(LineMetric(LINE), 2, facilities)
    request = Request(index=0, point=0, commodities=frozenset(demand))
    got, made, expected = _charge(state, monkeypatch, request, pairs)
    assert got == expected == charge
    assert made == calls
    assert state.current_connection_cost() == expected


def test_three_tracked_facilities_sum_in_frozenset_order(monkeypatch):
    """Three tracked nearest facilities, summed in the order of their id frozenset.

    frozenset({9, 1, 2}) built in the order 9, 1, 2 iterates 9, 2, 1.  Facility
    9 is the only one offering commodity 0, at distance 1e16; facilities 1 and
    2 are the nearest for commodities 1 and 2, at distance 1.  That order gives
    1e16 (each +1 rounds away), the sorted order 1e16 + 2.
    """
    facilities = [(2, {1})] + [(1, {1}), (1, {2})] + [(2, {1})] * 6 + [(2, {0})]
    state = _state(LineMetric([0.0, 1.0, 1e16]), 3, facilities)
    pairs = {0: 9, 1: 1, 2: 2}
    assert list(frozenset(pairs.values())) == [9, 2, 1]
    request = Request(index=0, point=0, commodities=frozenset(pairs))
    got, made, expected = _charge(state, monkeypatch, request, pairs)
    assert got == expected == 1e16 != (0.0 + 1.0 + 1.0) + 1e16
    assert made == 0


ASYMMETRIC = [
    [0.0, 1.0, 5.0],
    [2.0, 0.0, 1.0],
    [7.0, 3.0, 0.0],
]


@pytest.mark.parametrize(
    "point,facility_id,calls",
    [(0, 0, 0), (0, 1, 1), (2, 0, 1), (2, 1, 0), (1, 1, 1)],
)
def test_asymmetric_matrix_charges_distance_from_the_request(
    monkeypatch, point, facility_id, calls
):
    """``distance(request point, facility point)``, a row entry, never the transposed one."""
    metric = ExplicitMetric(ASYMMETRIC)
    state = _state(metric, 1, [(1, {0}), (2, {0})])
    request = Request(index=0, point=point, commodities=frozenset({0}))
    got, made, expected = _charge(state, monkeypatch, request, {0: facility_id})
    facility_point = state.store[facility_id].point
    assert got == expected == ASYMMETRIC[point][facility_point]
    assert made == calls


# ---------------------------------------------------------------------------
# Seeded integer-coordinate instances
# ---------------------------------------------------------------------------
def _line(rng):
    return LineMetric(rng.integers(0, 6, size=10).astype(float))


def _grid(rng):
    return GridMetric(rng.integers(0, 3, size=(10, 2)))


def _matrix(rng):
    matrix = rng.integers(1, 5, size=(10, 10)).astype(float)
    matrix[range(10), range(10)] = 0.0
    return ExplicitMetric(matrix)


@pytest.mark.parametrize("make_metric", [_line, _grid, _matrix], ids=["line", "grid", "matrix"])
@pytest.mark.parametrize("seed", range(6))
def test_seeded_charges_equal_oracle(monkeypatch, make_metric, seed):
    """Random facilities and assignments, nearest or not, priced like the oracle."""
    num_commodities = 3
    rng = ensure_rng(seed)
    metric = make_metric(rng)
    full = frozenset(range(num_commodities))
    facilities = []
    for _ in range(8):
        size = int(rng.integers(1, num_commodities + 1))
        configuration = rng.choice(num_commodities, size=size, replace=False).tolist()
        facilities.append((int(rng.integers(metric.num_points)), set(configuration)))
    facilities.append((int(rng.integers(metric.num_points)), set(full)))
    state = _state(metric, num_commodities, facilities)
    store = state.store
    served_by_tracker = 0
    for index in range(60):
        point = int(rng.integers(metric.num_points))
        size = int(rng.integers(1, num_commodities + 1))
        demand = rng.choice(num_commodities, size=size, replace=False).tolist()
        pairs = {}
        for commodity in demand:
            offering = store.facilities_offering(commodity)
            choice = int(rng.integers(3))
            if choice == 0:
                pairs[commodity] = store.nearest_offering(commodity, point)[0].id
            elif choice == 1:
                pairs[commodity] = store.nearest_large(point)[0].id
            else:
                pairs[commodity] = offering[int(rng.integers(len(offering)))].id
        request = Request(index=index, point=point, commodities=frozenset(demand))
        got, made, expected = _charge(state, monkeypatch, request, pairs)
        assert got == expected
        assert made <= len(set(pairs.values()))
        served_by_tracker += len(set(pairs.values())) - made
    assert served_by_tracker > 0


# ---------------------------------------------------------------------------
# Rejections
# ---------------------------------------------------------------------------
def _recorded_state() -> OnlineState:
    """Facility 0 offers {0, 1}, facility 1 offers {1}; two requests recorded."""
    state = _state(LineMetric(LINE), 2, [(1, {0, 1}), (2, {1})])
    state.record_assignment(Request(0, 0, frozenset({0})), Assignment(0, {0: 0}))
    state.record_assignment(Request(1, 3, frozenset({0, 1})), Assignment(1, {0: 0, 1: 1}))
    return state


REJECTED = [
    # (demand, assignment index, pairs)
    pytest.param({0}, 5, {0: 0}, id="wrong-index"),
    pytest.param({0, 1}, 2, {0: 0}, id="missing-commodity"),
    pytest.param({0}, 2, {0: 0, 1: 1}, id="extra-commodity"),
    pytest.param({0}, 2, {0: -1}, id="facility-minus-one"),
    pytest.param({0}, 2, {0: 2}, id="facility-past-the-end"),
    pytest.param({0, 1}, 2, {0: 1, 1: 1}, id="not-offered"),
    pytest.param({0}, 2, {0: "0"}, id="not-an-int"),
]


@pytest.mark.parametrize("demand,assignment_index,pairs", REJECTED)
def test_rejection_raises_validate_error_and_leaves_state(demand, assignment_index, pairs):
    state = _recorded_state()
    request = Request(index=2, point=4, commodities=frozenset(demand))
    assignment = Assignment(assignment_index, dict(pairs))
    with pytest.raises(InfeasibleSolutionError) as expected:
        assignment.validate(request, state.store.facility_map())
    before = (state.num_recorded, state.current_connection_cost(), state.state_dict())
    with pytest.raises(InfeasibleSolutionError) as raised:
        state.record_assignment(request, assignment)
    assert str(raised.value) == str(expected.value)
    assert (state.num_recorded, state.current_connection_cost(), state.state_dict()) == before


NON_INTEGER = [
    pytest.param({0}, {0: 0.0}, id="float-facility"),
    pytest.param({0, 1}, {0: 0, 1: 1.0}, id="second-float-facility"),
    pytest.param({0}, {0.0: 0}, id="float-commodity"),
]


@pytest.mark.parametrize("demand,pairs", NON_INTEGER)
def test_non_integer_id_is_rejected_before_any_charge(demand, pairs):
    """``validate`` accepts ``0.0`` as ``0``; the log refuses it, and the
    state stays as it was: no charge, no half-written row."""
    state = _recorded_state()
    request = Request(index=2, point=4, commodities=frozenset(demand))
    assignment = Assignment(2, dict(pairs))
    assignment.validate(request, state.store.facility_map())
    before = (state.num_recorded, state.current_connection_cost(), state.state_dict())
    with pytest.raises(InfeasibleSolutionError) as raised:
        state.record_assignment(request, assignment)
    assert str(raised.value) == (
        "request 2: the log takes 64-bit integer ids only, got the "
        f"(commodity, facility id) pairs {pairs!r}"
    )
    assert (state.num_recorded, state.current_connection_cost(), state.state_dict()) == before
    state.record_assignment(request, Assignment(2, {e: 0 for e in demand}))
    assert state.num_recorded == 3
    assert state.assignment_of(2).facility_of_commodity == {e: 0 for e in demand}


@pytest.mark.parametrize(
    "facility_id", [np.int64(1), np.intp(1), True], ids=["int64", "intp", "bool"]
)
def test_integer_like_ids_still_log(facility_id):
    state = _recorded_state()
    plain = _recorded_state()
    request = Request(index=2, point=4, commodities=frozenset({1}))
    state.record_assignment(request, Assignment(2, {1: facility_id}))
    plain.record_assignment(request, Assignment(2, {1: 1}))
    assert state.state_dict() == plain.state_dict()
    assert state.current_connection_cost() == plain.current_connection_cost()


def test_request_at_unknown_point_raises_metric_error_and_leaves_state():
    """A feasible assignment at a point outside the metric fails as ``metric.distance`` does."""
    state = _recorded_state()
    before = (state.num_recorded, state.current_connection_cost(), state.state_dict())
    with pytest.raises(InvalidMetricError, match="out of range"):
        state.record_assignment(Request(2, len(LINE), frozenset({0})), Assignment(2, {0: 0}))
    assert (state.num_recorded, state.current_connection_cost(), state.state_dict()) == before
