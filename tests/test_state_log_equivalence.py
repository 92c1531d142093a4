"""The array request log of ``OnlineState`` against the object log it replaced.

``OnlineState`` logs recorded assignments as flat arrays, finalizes a session
from its running totals, and restores a snapshot in one vectorized pass.
``tests/oracles.py`` keeps what those replaced: ``ObjectLogState`` (``Request``
and ``Assignment`` objects, a replay that re-records every request) and
``reference_finalize`` (validate every assignment, recompute every cost).
This grid runs both over the same streams and compares with exact ``==``:

* ``state_dict()`` and its JSON bytes;
* the running connection total and each request's connection cost;
* every materialized assignment, including its dict order;
* the finalized total, opening and connection costs and the small/large
  opening split, including their types;

live and after a replay of the snapshot, for every registered online
algorithm over the resume grid, two long streams and one out-of-order log.
One more test pins the order in which a request's distinct facilities are
summed, which the grid alone does not catch.
"""

from __future__ import annotations

import contextlib
import copy
import json

import pytest

from repro import ALGORITHMS as REGISTERED_ALGORITHMS
from repro import PDOMFLPAlgorithm, uniform_line_metric
from repro.algorithms.base import OnlineAlgorithm
from repro.api.session import OnlineSession
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import PowerCost
from repro.exceptions import AlgorithmError, InfeasibleSolutionError, ReproError
from repro.utils.rng import ensure_rng
from repro.metric.line import LineMetric
from repro.scenarios import ScenarioSession

from oracles import (
    ObjectLogState,
    object_log,
    reference_connection_cost,
    reference_finalize,
    v1_state_dict,
)
from test_session_resume import ALGORITHMS, SCENARIOS, SEEDS, _session_for

GRID = [
    pytest.param(algorithm_name, scenario_name, seed, id=f"{algorithm_name}-{scenario_name}-s{seed}")
    for algorithm_name, (_, single_only) in ALGORITHMS.items()
    for scenario_name, num_commodities, _ in SCENARIOS
    if single_only == (num_commodities == 1)
    for seed in SEEDS
]

LONG_STREAMS = [
    pytest.param(
        {
            "algorithm": "meyerson-ofl",
            "scenario": {
                "kind": "uniform",
                "num_commodities": 1,
                "num_points": 1024,
                "num_requests": 20000,
            },
            "seed": 0,
        },
        id="meyerson-20000",
    ),
    pytest.param(
        {
            "algorithm": "rand-omflp",
            "scenario": {
                "kind": "uniform",
                "num_commodities": 6,
                "num_points": 200,
                "max_demand": 6,
                "num_requests": 3000,
            },
            "seed": 5,
        },
        id="rand-omflp-6x200",
    ),
]


def _pairs(assignment: Assignment):
    return assignment.request_index, list(assignment.facility_of_commodity.items())


def assert_same_log(state: OnlineState, oracle: ObjectLogState) -> None:
    """Every view of the array log equals the object log's."""
    assert isinstance(oracle, ObjectLogState) and not isinstance(state, ObjectLogState)
    snapshot = state.state_dict()
    assert snapshot == oracle.state_dict()
    assert json.dumps(snapshot) == json.dumps(oracle.state_dict())
    assert state.current_connection_cost() == oracle.current_connection_cost()

    requests = oracle.processed_requests
    facilities = oracle.store.facility_map()
    metric = oracle.instance.metric
    assert state._request_costs().tolist() == [
        reference_connection_cost(oracle.assignment_of(r.index), r, facilities, metric)
        for r in requests
    ]
    assert [_pairs(state.assignment_of(r.index)) for r in requests] == [
        _pairs(oracle.assignment_of(r.index)) for r in requests
    ]
    assert [_pairs(a) for a in state.to_solution().assignments] == [
        _pairs(a) for a in oracle.to_solution().assignments
    ]
    assert [(r.index, r.point, r.commodities) for r in state.processed_requests] == [
        (r.index, r.point, r.commodities) for r in requests
    ]
    assert [state.facility_ids_of(r.index) for r in requests] == [
        oracle.facility_ids_of(r.index) for r in requests
    ]
    assert state.num_recorded == oracle.num_recorded == len(requests)


def assert_same_finalize(session: OnlineSession, oracle: ObjectLogState) -> None:
    """Finalizing from the running totals equals recomputing from the objects."""
    record = session.finalize()
    expected = reference_finalize(oracle)
    breakdown = record.source.breakdown
    for part in ("opening_small", "opening_large", "connection"):
        got, want = getattr(breakdown, part), getattr(expected, part)
        assert (got, type(got)) == (want, type(want)), part
    assert (record.total_cost, record.opening_cost, record.connection_cost) == (
        expected.total,
        expected.opening,
        expected.connection,
    )
    # The recomputing finalize over the objects the array log builds agrees too.
    assert reference_finalize(session.state) == expected


def _restored(session: OnlineSession, algorithm, instance: Instance, *, oracle: bool):
    text = session.snapshot().to_json()
    with object_log() if oracle else contextlib.nullcontext():
        return OnlineSession.restore(
            text,
            algorithm=algorithm,
            metric=instance.metric,
            cost=instance.cost_function,
            commodities=instance.commodities,
        )


def test_grid_covers_every_registered_algorithm():
    assert set(ALGORITHMS) == set(REGISTERED_ALGORITHMS)


@pytest.mark.parametrize("algorithm_name,scenario_name,seed", GRID)
def test_array_log_equals_object_log(algorithm_name, scenario_name, seed):
    session, instance = _session_for(algorithm_name, scenario_name, seed)
    with object_log():
        oracle, _ = _session_for(algorithm_name, scenario_name, seed)
    events = [session.submit(r.point, r.commodities) for r in instance.requests]
    assert events == [oracle.submit(r.point, r.commodities) for r in instance.requests]
    assert_same_log(session.state, oracle.state)

    factory, _ = ALGORITHMS[algorithm_name]
    num_commodities = instance.num_commodities
    replayed = _restored(session, factory(num_commodities), instance, oracle=False)
    replayed_oracle = _restored(oracle, factory(num_commodities), instance, oracle=True)
    assert_same_log(replayed.state, replayed_oracle.state)
    assert_same_log(replayed.state, oracle.state)

    assert_same_finalize(session, oracle.state)
    assert_same_finalize(replayed, replayed_oracle.state)


@pytest.mark.parametrize("spec", LONG_STREAMS)
def test_long_streams(spec):
    live = ScenarioSession(spec)
    with object_log():
        oracle = ScenarioSession(spec)
    assert live.advance() == oracle.advance()
    state = live.session.state
    assert_same_log(state, oracle.session.state)
    if spec["algorithm"] == "rand-omflp":
        # The case reaches the frozenset-order loop of requests served by
        # three or more distinct facilities.
        assert sum(len(state.facility_ids_of(i)) >= 3 for i in range(state.num_recorded)) > 0

    replayed = ScenarioSession.restore(live.snapshot())
    with object_log():
        replayed_oracle = ScenarioSession.restore(oracle.snapshot())
    assert_same_log(replayed.session.state, replayed_oracle.session.state)
    assert_same_log(replayed.session.state, oracle.session.state)

    assert_same_finalize(live.session, oracle.session.state)
    assert_same_finalize(replayed.session, replayed_oracle.session.state)


def test_out_of_order_log(small_instance):
    """Recording out of arrival order keeps every view equal to the object log."""
    requests = small_instance.requests
    states = [OnlineState(small_instance), ObjectLogState(small_instance)]
    for state in states:
        large = state.open_large_facility(requests[0], 2)
        small = state.open_facility(requests[0], 4, {2})
        for index in (3, 1, 0, 4):
            request = requests[index]
            assignment = Assignment(request_index=index)
            for commodity in sorted(request.commodities, reverse=True):
                facility = small if commodity == 2 else large
                assignment.assign(commodity, facility.id)
            state.record_assignment(request, assignment)
        with pytest.raises(AlgorithmError, match="assigned twice"):
            state.record_assignment(requests[1], Assignment(1, {2: small.id}))
        with pytest.raises(KeyError):
            state.assignment_of(2)
    live, oracle = states
    live.validate_log()
    assert [r.index for r in live.processed_requests] == [3, 1, 0, 4]
    assert_same_log(live, oracle)


def test_three_facility_cost_sums_in_frozenset_order():
    """A request served by three distinct facilities sums their distances in
    the order of its facility-id frozenset, live and replayed.

    frozenset({9, 1, 2}) built in the order 9, 1, 2 iterates 9, 2, 1.  With
    facility 9 at distance 1e16 and facilities 1 and 2 at distance 1, that
    order gives 1e16 (each +1 rounds away), the sorted order 1e16 + 2.
    """
    metric = LineMetric([0.0, 1.0, 1e16])
    instance = Instance(metric, PowerCost(3, 1.0), RequestSequence([]))
    request = Request(index=0, point=0, commodities=frozenset({0, 1, 2}))
    served = {0: 9, 1: 1, 2: 2}
    assert list(frozenset(served.values())) == [9, 2, 1]

    states = [OnlineState(instance), ObjectLogState(instance)]
    for state in states:
        for facility_id in range(10):
            state.open_facility(request, 2 if facility_id == 9 else 1, {0, 1, 2})
        state.record_assignment(request, Assignment(0, dict(served)))
    live, oracle = states
    expected = reference_connection_cost(
        Assignment(0, dict(served)), request, live.store.facility_map(), metric
    )
    assert expected == 1e16 != (0.0 + 1.0 + 1.0) + 1e16

    replayed = OnlineState(instance)
    replayed.load_state_dict(json.loads(json.dumps(live.state_dict())))
    for state in (live, replayed, oracle):
        assert state.current_connection_cost() == expected
    assert live._request_costs().tolist() == replayed._request_costs().tolist() == [expected]
    assert_same_log(replayed, oracle)


def _damage(state: dict, rng, num_points: int, num_commodities: int) -> None:
    """One random out-of-range or inconsistent (but well-typed, repeat-free) edit."""
    requests, assignments = state["requests"], state["assignments"]
    num_facilities = len(state["store"]["facilities"])
    row = int(rng.integers(len(requests)))
    demand, pairs = requests[row][1], assignments[row]
    kind = int(rng.integers(7))
    if kind == 0:
        requests[row][0] = int(rng.integers(-3, num_points + 3))
    elif kind == 1:
        unused = [e for e in range(-2, num_commodities + 2) if e not in demand]
        demand[int(rng.integers(len(demand)))] = unused[int(rng.integers(len(unused)))]
    elif kind == 2:
        pairs[int(rng.integers(len(pairs)))][1] = int(rng.integers(-2, num_facilities + 2))
    elif kind == 3:
        unused = [e for e in range(-2, num_commodities + 2) if e not in [c for c, _ in pairs]]
        pairs[int(rng.integers(len(pairs)))][0] = unused[int(rng.integers(len(unused)))]
    elif kind == 4:
        pairs.pop(int(rng.integers(len(pairs))))
    elif kind == 5:
        unused = [e for e in range(-2, num_commodities + 2) if e not in [c for c, _ in pairs]]
        pairs.append([unused[int(rng.integers(len(unused)))], int(rng.integers(num_facilities))])
    else:
        demand.clear()


def _replay_outcome(state_class, instance: Instance, snapshot: dict):
    state = state_class(instance)
    try:
        state.load_state_dict(copy.deepcopy(snapshot))
    except ReproError as error:
        return type(error), str(error)
    return state.state_dict(), state.current_connection_cost()


@pytest.mark.parametrize("scenario_name", ["clustered-euclidean", "grid-l1"])
def test_replay_of_a_damaged_log_fails_like_the_object_log(scenario_name):
    """The vectorized screen finds the same first bad row of a version-1 log
    as re-recording every request does, and raises the same error type and
    message."""
    session, instance = _session_for("rand-omflp", scenario_name, 0)
    for request in instance.requests:
        session.submit(request.point, request.commodities)
    clean = v1_state_dict(session.state.state_dict())
    rng = ensure_rng(7)
    failures = 0
    for _ in range(60):
        damaged = copy.deepcopy(clean)
        for _ in range(int(rng.integers(1, 4))):
            _damage(damaged, rng, instance.num_points, instance.num_commodities)
        expected = _replay_outcome(ObjectLogState, instance, damaged)
        assert _replay_outcome(OnlineState, instance, damaged) == expected
        failures += isinstance(expected[0], type)
    assert failures > 40


def _damage_columns(state: dict, rng, num_points: int, num_commodities: int) -> None:
    """One random out-of-range or inconsistent edit of a version-2 log that
    keeps its columns well typed, their lengths consistent and each row
    repeat-free."""
    log = state["log"]
    points, counts = log["points"], log["counts"]
    commodities, facilities = log["commodities"], log["facilities"]
    num_facilities = len(state["store"]["facilities"])
    starts = [0]
    for count in counts:
        starts.append(starts[-1] + count)
    row = int(rng.integers(len(points)))
    served = commodities[starts[row] : starts[row + 1]]
    pair = starts[row] + int(rng.integers(counts[row]))
    kind = int(rng.integers(4))
    if kind == 0:
        points[row] = int(rng.integers(-3, num_points + 3))
    elif kind == 1:
        unused = [e for e in range(-2, num_commodities + 2) if e not in served]
        commodities[pair] = unused[int(rng.integers(len(unused)))]
    elif kind == 2:
        facilities[pair] = int(rng.integers(-2, num_facilities + 2))
    elif row + 1 < len(points) and counts[row] > 1:
        # The row's last pair moves to the next request, unless it is served there.
        moved = commodities[starts[row + 1] - 1]
        if moved not in commodities[starts[row + 1] : starts[row + 2]]:
            counts[row] -= 1
            counts[row + 1] += 1


@pytest.mark.parametrize("scenario_name", ["clustered-euclidean", "grid-l1"])
def test_replay_of_a_damaged_column_log_fails_like_the_object_log(scenario_name):
    """The same for a version-2 log: re-recording the rows rebuilt from its
    columns fails at the same row with the same error, or restores the same
    state and costs."""
    session, instance = _session_for("rand-omflp", scenario_name, 0)
    for request in instance.requests:
        session.submit(request.point, request.commodities)
    clean = session.state.state_dict()
    rng = ensure_rng(11)
    failures = 0
    for _ in range(60):
        damaged = copy.deepcopy(clean)
        for _ in range(int(rng.integers(1, 4))):
            _damage_columns(damaged, rng, instance.num_points, instance.num_commodities)
        expected = _replay_outcome(ObjectLogState, instance, damaged)
        assert _replay_outcome(OnlineState, instance, damaged) == expected
        failures += isinstance(expected[0], type)
    # Some edits leave a feasible log, whose replays must then agree on
    # the rebuilt state and its costs.
    assert 20 < failures < 50


# ---------------------------------------------------------------------------
# What finalize no longer recomputes is still checked
# ---------------------------------------------------------------------------
def _corrupt(column: str, row: int, value: int):
    def corrupt(log):
        getattr(log, column)[row] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt,message",
    [
        pytest.param(_corrupt("points", 1, 99), r"^request 1 is located at unknown point 99$",
                     id="point"),
        pytest.param(_corrupt("facilities", 2, 42), r"^request 1: facility 42 does not exist$",
                     id="unknown-facility"),
        pytest.param(_corrupt("facilities", 0, 1),
                     r"^request 0: facility 1 does not offer commodity 0$", id="not-offered"),
    ],
)
def test_finalize_validates_the_log(corrupt, message):
    """With ``validate`` (the default), finalize checks the frozen log in one
    vectorized pass; without it, finalize reads the running totals only."""
    for validate in (True, False):
        # Facilities: 0 offers {0}, 1 offers {1}, 2 is large; request 0 is
        # served by 0 and 1, request 1 by 2.
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(8), PowerCost(4, 1.0), validate=validate
        )
        session.submit(1, {0, 1})
        session.submit(6, {2})
        corrupt(session.state._log)
        if validate:
            with pytest.raises(InfeasibleSolutionError, match=message):
                session.finalize()
        else:
            assert session.finalize().total_cost == session.total_cost


class _Forgetful(OnlineAlgorithm):
    name = "forgetful"

    def process(self, request, state, rng) -> None:
        pass


def test_submit_requires_a_recorded_assignment():
    session = OnlineSession(_Forgetful(), uniform_line_metric(8), PowerCost(4, 1.0))
    with pytest.raises(AlgorithmError, match="without recording an assignment"):
        session.submit(1, {0})
