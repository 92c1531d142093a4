"""Bit-identical equivalence of snapshot→restore→continue vs uninterrupted runs.

The durable-session layer (:mod:`repro.service.snapshot`) claims that a
session snapshotted after ``k`` requests and restored in a fresh
process-like context — new algorithm object, freshly rebuilt metric/cost,
snapshot round-tripped through its strict-JSON codec — continues the stream
**bit-identically** to the uninterrupted run: the same remaining-stream
events, the same final costs, the same facility-opening sequence and the
same assignment trace.

This harness pins that claim for every registered online algorithm over a
grid of metric/cost scenarios and seeds, mirroring the accel-equivalence
harness of ``tests/test_accel_equivalence.py``.  Each case resumes in
production and compares against an uninterrupted run either in production
(``-accel``) or on the reference scans of ``tests/oracles.py`` (``-ref``),
so a resumed stream is also pinned to the oracle.  Equality is asserted with
``==`` on floats throughout — "close" is not good enough; resume is exact or
broken.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.algorithms.base import OnlineAlgorithm, OnlineResult
from repro.algorithms.online.always_large import AlwaysLargeGreedy
from repro.algorithms.online.no_prediction import NoPredictionGreedy
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import (
    FotakisOFLAlgorithm,
    MeyersonOFLAlgorithm,
    PerCommodityAlgorithm,
)
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.algorithms.online.threshold import ThresholdPDAlgorithm
from repro.api.session import OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.core.facility import FacilityStore
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import PowerCost
from repro.costs.general import PerPointScaledCost
from repro.exceptions import InfeasibleSolutionError, InvalidInstanceError, SnapshotError
from repro.metric.factories import random_euclidean_metric, random_line_metric
from repro.metric.grid import GridMetric
from repro.metric.line import LineMetric
from repro.service.snapshot import SessionSnapshot
from repro.utils.rng import ensure_rng
from repro.workloads.clustered import clustered_workload

from oracles import (
    REFERENCE_ALGORITHMS,
    ReferencePDOMFLPAlgorithm,
    reference_scans,
    v1_snapshot,
    v1_state_dict,
)

SEEDS = [0, 1, 2]

#: Requests served before the snapshot is taken.
SPLIT = 7


# ---------------------------------------------------------------------------
# Scenario grid: (name, num_commodities, instance builder)
# ---------------------------------------------------------------------------
def _random_requests(metric, num_commodities: int, num_requests: int, rng) -> RequestSequence:
    requests = []
    for index in range(num_requests):
        point = int(rng.integers(0, metric.num_points))
        size = int(rng.integers(1, num_commodities + 1))
        commodities = rng.choice(num_commodities, size=size, replace=False)
        requests.append(
            Request(index=index, point=point, commodities=frozenset(int(e) for e in commodities))
        )
    return RequestSequence(requests)


def _instance_on(metric, num_commodities: int, seed: int, *, scaled_costs: bool = False):
    rng = ensure_rng(seed)
    cost = PowerCost(num_commodities, 1.0, scale=0.5)
    if scaled_costs:
        scales = rng.uniform(0.5, 8.0, size=metric.num_points)
        cost = PerPointScaledCost(cost, scales)
    requests = _random_requests(metric, num_commodities, 18, rng)
    return Instance(metric, cost, requests, commodities=CommodityUniverse(num_commodities))


def _line_single(seed: int) -> Instance:
    return _instance_on(random_line_metric(24, rng=seed), 1, seed, scaled_costs=True)


def _euclidean_single(seed: int) -> Instance:
    return _instance_on(random_euclidean_metric(30, rng=seed), 1, seed, scaled_costs=True)


def _clustered_multi(seed: int) -> Instance:
    return clustered_workload(
        num_requests=18, num_commodities=5, num_clusters=3, rng=seed
    ).instance


def _grid_multi(seed: int) -> Instance:
    return _instance_on(GridMetric.full_grid(5, 5), 4, seed, scaled_costs=True)


SCENARIOS: List[Tuple[str, int, Callable[[int], Instance]]] = [
    ("line-single", 1, _line_single),
    ("euclidean-single", 1, _euclidean_single),
    ("clustered-euclidean", 5, _clustered_multi),
    ("grid-l1", 4, _grid_multi),
]

#: name -> (factory taking num_commodities, single_commodity_only)
ALGORITHMS: Dict[str, Tuple[Callable[[int], OnlineAlgorithm], bool]] = {
    "meyerson-ofl": (lambda c: MeyersonOFLAlgorithm(), True),
    "fotakis-ofl": (lambda c: FotakisOFLAlgorithm(), True),
    "pd-omflp": (lambda c: PDOMFLPAlgorithm(), False),
    "rand-omflp": (lambda c: RandOMFLPAlgorithm(), False),
    "threshold-pd": (lambda c: ThresholdPDAlgorithm(c, excluded=(0,)), False),
    "per-commodity-fotakis": (lambda c: PerCommodityAlgorithm("fotakis"), False),
    "per-commodity-meyerson": (lambda c: PerCommodityAlgorithm("meyerson"), False),
    "no-prediction-greedy": (lambda c: NoPredictionGreedy(), False),
    "always-large-greedy": (lambda c: AlwaysLargeGreedy(), False),
}


class _ReferenceThresholdPD(ThresholdPDAlgorithm, ReferencePDOMFLPAlgorithm):
    """Threshold PD-OMFLP on the reference PD-OMFLP bid sums."""


#: name -> factory of the oracle version, run under reference_scans().  The
#: greedy baselines keep no caches of their own: the scan facility store is
#: their whole oracle.
ORACLES: Dict[str, Callable[[int], OnlineAlgorithm]] = {
    **{name: (lambda c, f=factory: f()) for name, factory in REFERENCE_ALGORITHMS.items()},
    "threshold-pd": lambda c: _ReferenceThresholdPD(c, excluded=(0,)),
    "no-prediction-greedy": lambda c: NoPredictionGreedy(),
    "always-large-greedy": lambda c: AlwaysLargeGreedy(),
}

#: The uninterrupted run each resumed run is compared against: production
#: ("accel") or the oracle ("ref").
BASELINES = ("accel", "ref")

CASES = [
    pytest.param(
        algorithm_name,
        scenario_name,
        seed,
        baseline,
        id=f"{algorithm_name}-{scenario_name}-s{seed}-{baseline}",
    )
    for algorithm_name, (_, single_only) in ALGORITHMS.items()
    for scenario_name, num_commodities, _ in SCENARIOS
    if single_only == (num_commodities == 1)
    for seed in SEEDS
    for baseline in BASELINES
]


# ---------------------------------------------------------------------------
# Fingerprinting one run
# ---------------------------------------------------------------------------
def _facility_sequence(result: OnlineResult) -> List[Tuple[int, int, Tuple[int, ...], float]]:
    return [
        (f.id, f.point, tuple(sorted(f.configuration)), f.opening_cost)
        for f in result.solution.facilities
    ]


def _assignment_trace(result: OnlineResult) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    return [
        (a.request_index, tuple(sorted(a.facility_of_commodity.items())))
        for a in result.solution.assignments
    ]


def _session_for(algorithm_name: str, scenario_name: str, seed: int, *, oracle: bool = False):
    """A fresh (session, instance) pair — components rebuilt from scratch.

    With ``oracle`` the algorithm is its reference version; the caller runs
    the session inside :func:`reference_scans`.
    """
    factory = ORACLES[algorithm_name] if oracle else ALGORITHMS[algorithm_name][0]
    builder = next(b for name, _, b in SCENARIOS if name == scenario_name)
    num_commodities = next(c for name, c, _ in SCENARIOS if name == scenario_name)
    instance = builder(seed)
    session = OnlineSession(
        factory(num_commodities),
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=seed,
        trace=True,
    )
    return session, instance


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm_name,scenario_name,seed,baseline", CASES)
def test_resume_is_bit_identical_to_uninterrupted(algorithm_name, scenario_name, seed, baseline):
    # Uninterrupted run, in production or on the oracle.
    oracle = baseline == "ref"
    with reference_scans() if oracle else contextlib.nullcontext():
        full, instance = _session_for(algorithm_name, scenario_name, seed, oracle=oracle)
        full_events = [full.submit(r.point, r.commodities) for r in instance.requests]
        full_record = full.finalize()

    # Interrupted run: serve SPLIT requests, snapshot, round-trip the codec.
    partial, instance2 = _session_for(algorithm_name, scenario_name, seed)
    partial_events = [
        partial.submit(r.point, r.commodities) for r in instance2.requests[:SPLIT]
    ]
    snapshot = SessionSnapshot.from_json(partial.snapshot().to_json())

    # Restore against freshly rebuilt components (a fresh-process stand-in;
    # the partial session is never touched again).
    factory, _ = ALGORITHMS[algorithm_name]
    num_commodities = next(c for name, c, _ in SCENARIOS if name == scenario_name)
    builder = next(b for name, _, b in SCENARIOS if name == scenario_name)
    instance3 = builder(seed)
    resumed = OnlineSession.restore(
        snapshot,
        algorithm=factory(num_commodities),
        metric=instance3.metric,
        cost=instance3.cost_function,
        commodities=instance3.commodities,
    )
    assert resumed.num_requests == SPLIT
    assert resumed.total_cost == partial.total_cost

    resumed_events = [
        resumed.submit(r.point, r.commodities) for r in instance3.requests[SPLIT:]
    ]
    resumed_record = resumed.finalize()

    # The pre-snapshot prefix and the post-restore remainder must both equal
    # the uninterrupted stream, event for event (exact float equality —
    # AssignmentEvent equality compares every cost field).
    assert partial_events == full_events[:SPLIT]
    assert resumed_events == full_events[SPLIT:]

    # Exact cost equality on the finalized records.
    assert resumed_record.total_cost == full_record.total_cost
    assert resumed_record.opening_cost == full_record.opening_cost
    assert resumed_record.connection_cost == full_record.connection_cost

    # Identical facility-opening sequences and assignment traces.
    assert _facility_sequence(resumed_record.source) == _facility_sequence(full_record.source)
    assert _assignment_trace(resumed_record.source) == _assignment_trace(full_record.source)

    # Identical trace transcripts (openings, assignments, coin flips, duals).
    assert [e.to_dict() for e in resumed_record.trace.events] == [
        e.to_dict() for e in full_record.trace.events
    ]


def test_snapshot_restores_from_embedded_spec():
    """A spec-embedded snapshot restores without re-supplying components."""
    spec = {
        "algorithm": "rand-omflp",
        "workload": {
            "kind": "uniform",
            "num_requests": 12,
            "num_commodities": 4,
            "num_points": 10,
        },
        "seed": 5,
    }
    from repro.service.snapshot import components_from_spec

    algorithm, instance, generator = components_from_spec(spec)
    session = OnlineSession(
        algorithm,
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=generator,
    )
    for request in instance.requests[:5]:
        session.submit(request.point, request.commodities)
    snapshot = SessionSnapshot.from_json(session.snapshot(spec=spec).to_json())

    resumed = OnlineSession.restore(snapshot)
    for request in instance.requests[5:]:
        session.submit(request.point, request.commodities)
        resumed.submit(request.point, request.commodities)
    assert resumed.finalize().total_cost == session.finalize().total_cost


def test_restore_rejects_mismatched_codec_versions():
    session, _ = _session_for("pd-omflp", "grid-l1", 0)
    data = session.snapshot().to_dict()
    data["version"] = 999
    with pytest.raises(SnapshotError, match="version"):
        SessionSnapshot.from_dict(data)
    data["version"] = 1
    data["format"] = "something-else"
    with pytest.raises(SnapshotError, match="format"):
        SessionSnapshot.from_dict(data)


def test_restore_refuses_version_3_and_a_version_its_log_disagrees_with():
    session, instance = _session_for("pd-omflp", "grid-l1", 0)
    for request in instance.requests[:3]:
        session.submit(request.point, request.commodities)
    data = session.snapshot().to_dict()
    assert data["version"] == 2 and set(data["state"]) == {"store", "log", "trace"}
    with pytest.raises(
        SnapshotError, match=r"^unsupported snapshot version 3; this build reads versions 1 and 2$"
    ):
        SessionSnapshot.from_dict(dict(data, version=3))
    with pytest.raises(
        SnapshotError,
        match=r"^snapshot version 1 disagrees with its state, which holds a version-2 "
        r"request log$",
    ):
        SessionSnapshot.from_dict(dict(data, version=1))
    with pytest.raises(
        SnapshotError,
        match=r"^snapshot version 2 disagrees with its state, which holds a version-1 "
        r"request log$",
    ):
        SessionSnapshot.from_dict(dict(v1_snapshot(data), version=2))
    with pytest.raises(SnapshotError, match=r"^unsupported snapshot version True"):
        SessionSnapshot.from_dict(dict(v1_snapshot(data), version=True))
    assert SessionSnapshot.from_dict(v1_snapshot(data)).version == 1


def test_restore_requires_components_or_spec():
    session, _ = _session_for("pd-omflp", "grid-l1", 0)
    snapshot = session.snapshot()
    with pytest.raises(SnapshotError, match="embedded spec"):
        OnlineSession.restore(snapshot)


def test_snapshot_refuses_finalized_sessions():
    session, instance = _session_for("no-prediction-greedy", "grid-l1", 0)
    session.submit(instance.requests[0].point, instance.requests[0].commodities)
    session.finalize()
    with pytest.raises(SnapshotError, match="finalized"):
        session.snapshot()


def test_streaming_scenario_session_resumes_bit_identically():
    """A scenario-backed session snapshot resumes stream *and* algorithm.

    The scenario engine case of this harness: a nested combinator stream
    (mixture of burst + zipf) feeding rand-omflp is snapshotted mid-stream,
    round-tripped through the strict-JSON codec, and the restored
    ScenarioSession must replay the remaining arrivals and costs exactly.
    """
    from repro.scenarios import ScenarioSession

    spec = {
        "algorithm": "rand-omflp",
        "scenario": {
            "kind": "mixture",
            "weights": [2.0, 1.0],
            "children": [
                {"kind": "burst", "num_requests": 24, "num_commodities": 5,
                 "num_points": 16, "num_hotspots": 2, "burst_size_mean": 4.0},
                {"kind": "zipf", "num_requests": 12, "num_commodities": 5,
                 "num_points": 16},
            ],
        },
        "seed": 9,
    }
    reference = ScenarioSession(spec)
    reference_events = reference.advance()
    reference_record = reference.finalize()

    session = ScenarioSession(spec)
    head = session.advance(SPLIT)
    snapshot = SessionSnapshot.from_json(session.snapshot().to_json())
    resumed = ScenarioSession.restore(snapshot)
    assert resumed.position == SPLIT
    tail = resumed.advance()
    assert head + tail == reference_events
    record = resumed.finalize()
    assert record.total_cost == reference_record.total_cost
    assert record.opening_cost == reference_record.opening_cost
    assert record.connection_cost == reference_record.connection_cost
    assert _facility_sequence(record.source) == _facility_sequence(
        reference_record.source
    )
    assert _assignment_trace(record.source) == _assignment_trace(
        reference_record.source
    )


def _restore_and_finish(snapshot_data, algorithm_name, scenario_name, seed):
    """Restore ``snapshot_data`` onto fresh components and serve the rest."""
    factory, _ = ALGORITHMS[algorithm_name]
    num_commodities = next(c for name, c, _ in SCENARIOS if name == scenario_name)
    instance = next(b for name, _, b in SCENARIOS if name == scenario_name)(seed)
    resumed = OnlineSession.restore(
        SessionSnapshot.from_json(json.dumps(snapshot_data)),
        algorithm=factory(num_commodities),
        metric=instance.metric,
        cost=instance.cost_function,
        commodities=instance.commodities,
    )
    events = [resumed.submit(r.point, r.commodities) for r in instance.requests[SPLIT:]]
    return events, resumed.finalize()


@pytest.mark.parametrize("legacy_flag", [True, False])
def test_legacy_use_accel_snapshot_key_is_ignored(legacy_flag):
    """Snapshots written with a session-level ``use_accel`` flag (either
    value) still load and resume bit-identically; rand-omflp's state was the
    same on both former hot paths."""
    full, instance = _session_for("rand-omflp", "clustered-euclidean", 0)
    full_events = [full.submit(r.point, r.commodities) for r in instance.requests]
    full_record = full.finalize()

    partial, instance2 = _session_for("rand-omflp", "clustered-euclidean", 0)
    for request in instance2.requests[:SPLIT]:
        partial.submit(request.point, request.commodities)
    data = partial.snapshot().to_dict()
    assert "use_accel" not in data
    data["use_accel"] = legacy_flag

    events, record = _restore_and_finish(data, "rand-omflp", "clustered-euclidean", 0)
    assert events == full_events[SPLIT:]
    assert record.total_cost == full_record.total_cost
    assert _facility_sequence(record.source) == _facility_sequence(full_record.source)
    assert [e.to_dict() for e in record.trace.events] == [
        e.to_dict() for e in full_record.trace.events
    ]


def test_pd_snapshot_in_reference_format_is_refused():
    """PD-OMFLP state of the removed reference hot path (a per-request
    ``history`` instead of ``small_buffers``) is refused, not converted."""
    session, instance = _session_for("pd-omflp", "clustered-euclidean", 0)
    for request in instance.requests[:SPLIT]:
        session.submit(request.point, request.commodities)
    data = session.snapshot().to_dict()
    data["use_accel"] = False
    duals = data["algorithm_state"]["duals"]
    data["algorithm_state"] = {
        "duals": duals,
        "history": [
            [index, point, commodities]
            for index, (point, commodities) in enumerate(
                v1_state_dict(data["state"])["requests"]
            )
        ],
        "nearest_small": [],
        "nearest_large": [],
    }
    with pytest.raises(SnapshotError, match="reference hot path"):
        _restore_and_finish(data, "pd-omflp", "clustered-euclidean", 0)


#: (algorithm state, message after the algorithm's name): a stateless
#: algorithm's snapshot is the empty JSON object and nothing else.
DAMAGED_STATELESS = [
    pytest.param([], r"state must be a JSON object, got list", id="list"),
    pytest.param(0, r"state must be a JSON object, got int", id="zero"),
    pytest.param(None, r"state must be a JSON object, got NoneType", id="null"),
    pytest.param("", r"state must be a JSON object, got str", id="empty-string"),
    pytest.param({"x": 1}, r"is stateless and cannot load a non-empty snapshot state "
                 r"\(got keys \['x'\]\)", id="keys"),
]


@pytest.mark.parametrize("state,message", DAMAGED_STATELESS)
@pytest.mark.parametrize("algorithm_name", ["rand-omflp", "no-prediction-greedy",
                                            "always-large-greedy"])
def test_a_stateless_algorithm_refuses_any_state_but_the_empty_object(
    algorithm_name, state, message
):
    session, instance = _session_for(algorithm_name, "clustered-euclidean", 0)
    for request in instance.requests[:SPLIT]:
        session.submit(request.point, request.commodities)
    data = session.snapshot().to_dict()
    assert data["algorithm_state"] == {}
    data["algorithm_state"] = state
    with pytest.raises(SnapshotError, match=f"^{algorithm_name} {message}$"):
        _restore_and_finish(data, algorithm_name, "clustered-euclidean", 0)


def test_restore_rejects_truncated_assignment_log():
    """A state snapshot with fewer assignments than requests is refused
    instead of silently dropping the unassigned requests."""
    session, instance = _session_for("pd-omflp", "grid-l1", 0)
    for request in instance.requests[:3]:
        session.submit(request.point, request.commodities)
    data = v1_snapshot(session.snapshot().to_dict())
    data["state"]["assignments"] = data["state"]["assignments"][:2]
    with pytest.raises(SnapshotError, match="3 requests but 2 assignments"):
        OnlineSession.restore(
            data,
            algorithm=PDOMFLPAlgorithm(),
            metric=instance.metric,
            cost=instance.cost_function,
            commodities=instance.commodities,
        )


def _put(*path_and_value):
    """A damage setting the snapshot state entry at ``path`` to ``value``."""
    *path, value = path_and_value

    def damage(state):
        target = state
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return damage


#: (damage, error type, message) against the state after 3 grid-l1 requests:
#: store facilities [[13, S], [19, S], [21, S]] (S = all four commodities),
#: requests [[19, [1, 3]], [24, [2, 3]], [21, [1, 2, 3]]], and each request
#: served by the facility of its own index.
DAMAGED_STATES = [
    # Values the replay used to coerce with int() or silently de-duplicate.
    pytest.param(_put("requests", 0, 0, 1.5), SnapshotError,
                 r"requests\[0\] point must be a JSON integer, got 1\.5", id="point-float"),
    pytest.param(_put("requests", 0, 0, True), SnapshotError,
                 r"requests\[0\] point must be a JSON integer, got True", id="point-bool"),
    pytest.param(_put("requests", 0, 0, "19"), SnapshotError,
                 r"requests\[0\] point must be a JSON integer, got '19'", id="point-string"),
    pytest.param(_put("assignments", 0, 0, 1, 0.9), SnapshotError,
                 r"assignments\[0\]\[0\] facility id must be a JSON integer, got 0\.9",
                 id="facility-id-float"),
    pytest.param(_put("store", "facilities", 0, 0, 13.5), SnapshotError,
                 r"store facilities\[0\] point must be a JSON integer, got 13\.5",
                 id="facility-point-float"),
    pytest.param(_put("assignments", 0, [[1, 0], [3, 0], [1, 0]]), SnapshotError,
                 r"assignments\[0\] repeats commodity 1", id="assignment-repeats-commodity"),
    pytest.param(_put("requests", 0, 1, [1, 3, 3]), SnapshotError,
                 r"requests\[0\] commodities repeats commodity 3", id="request-repeats-commodity"),
    pytest.param(lambda state: state.pop("store"), SnapshotError,
                 r"snapshot state has no 'store' field", id="no-store"),
    pytest.param(_put("requests", 3), SnapshotError,
                 r"snapshot requests must be a JSON list, got int", id="requests-not-a-list"),
    # Out-of-range values keep the errors re-recording the row raised.
    pytest.param(_put("requests", 1, 0, 25), InvalidInstanceError,
                 r"^request 1 is located at unknown point 25$", id="point-out-of-range"),
    pytest.param(_put("requests", 1, 1, [2, 7]), InvalidInstanceError,
                 r"^commodity 7 out of range \[0, 4\)$", id="commodity-out-of-range"),
    pytest.param(_put("assignments", 2, 1, 1, 5), InfeasibleSolutionError,
                 r"^request 2: facility 5 does not exist$", id="unknown-facility"),
    pytest.param(_put("store", "facilities", 0, 0, 99), InvalidInstanceError,
                 r"^facility point 99 out of range \[0, 25\)$", id="facility-point-out-of-range"),
    pytest.param(_put("store", "facilities", 1, 1, [0]), InfeasibleSolutionError,
                 r"^request 1: facility 1 does not offer commodity 2$", id="not-offered"),
    pytest.param(_put("assignments", 1, [[2, 1]]), InfeasibleSolutionError,
                 r"^request 1: commodities \[3\] are not served$", id="not-served"),
    pytest.param(lambda state: (_put("assignments", 2, 1, 1, 5)(state),
                                _put("requests", 1, 0, 25)(state)),
                 InvalidInstanceError, r"^request 1 is located", id="first-bad-row-wins"),
]


@pytest.mark.parametrize("damage,error,message", DAMAGED_STATES)
def test_restore_rejects_damaged_request_log(damage, error, message):
    """A damaged version-1 log is refused with an error naming the row and
    field, never restored with coerced or de-duplicated values."""
    session, instance = _session_for("pd-omflp", "grid-l1", 0)
    for request in instance.requests[:3]:
        session.submit(request.point, request.commodities)
    data = v1_snapshot(session.snapshot().to_dict())
    assert data["state"]["store"]["facilities"] == [
        [13, [0, 1, 2, 3]], [19, [0, 1, 2, 3]], [21, [0, 1, 2, 3]]
    ]
    assert data["state"]["requests"] == [[19, [1, 3]], [24, [2, 3]], [21, [1, 2, 3]]]
    damage(data["state"])
    with pytest.raises(error, match=message):
        OnlineSession.restore(
            data,
            algorithm=PDOMFLPAlgorithm(),
            metric=instance.metric,
            cost=instance.cost_function,
            commodities=instance.commodities,
        )


#: (damage, error type, message) against the same state as version 2 writes
#: it: log points [19, 24, 21], counts [2, 2, 3], commodities
#: [1, 3, 2, 3, 1, 2, 3] and facilities [0, 0, 1, 1, 2, 2, 2].
DAMAGED_LOGS = [
    # Types, checked once per column and named by column and position.
    pytest.param(_put("log", "points", 0, 1.5), SnapshotError,
                 r"^snapshot log points\[0\] must be a JSON integer, got 1\.5$", id="point-float"),
    pytest.param(_put("log", "points", 2, True), SnapshotError,
                 r"^snapshot log points\[2\] must be a JSON integer, got True$", id="point-bool"),
    pytest.param(_put("log", "points", 1, "24"), SnapshotError,
                 r"^snapshot log points\[1\] must be a JSON integer, got '24'$",
                 id="point-string"),
    pytest.param(_put("log", "counts", 1, 2.0), SnapshotError,
                 r"^snapshot log counts\[1\] must be a JSON integer, got 2\.0$", id="count-float"),
    pytest.param(_put("log", "commodities", 4, False), SnapshotError,
                 r"^snapshot log commodities\[4\] must be a JSON integer, got False$",
                 id="commodity-bool"),
    pytest.param(_put("log", "commodities", 0, "1"), SnapshotError,
                 r"^snapshot log commodities\[0\] must be a JSON integer, got '1'$",
                 id="commodity-string"),
    pytest.param(_put("log", "facilities", 6, 2.5), SnapshotError,
                 r"^snapshot log facilities\[6\] must be a JSON integer, got 2\.5$",
                 id="facility-float"),
    pytest.param(_put("log", "facilities", 3, None), SnapshotError,
                 r"^snapshot log facilities\[3\] must be a JSON integer, got None$",
                 id="facility-null"),
    # Missing columns and columns that are not lists.
    pytest.param(lambda state: state.pop("log"), SnapshotError,
                 r"^snapshot state has no 'log' field$", id="no-log"),
    pytest.param(_put("log", [[19, 2]]), SnapshotError,
                 r"^snapshot log must be a JSON object, got list$", id="log-not-an-object"),
    pytest.param(lambda state: state["log"].pop("counts"), SnapshotError,
                 r"^snapshot log has no 'counts' field$", id="no-counts"),
    pytest.param(_put("log", "facilities", 7), SnapshotError,
                 r"^snapshot log facilities must be a JSON list, got int$",
                 id="facilities-not-a-list"),
    pytest.param(_put("log", "points", {"0": 19}), SnapshotError,
                 r"^snapshot log points must be a JSON list, got dict$", id="points-not-a-list"),
    # Lengths.
    pytest.param(lambda state: state["log"]["points"].pop(), SnapshotError,
                 r"^snapshot log has 2 points but 3 counts$", id="points-counts-mismatch"),
    pytest.param(lambda state: state["log"]["facilities"].pop(), SnapshotError,
                 r"^snapshot log has 7 commodities but 6 facilities$",
                 id="commodities-facilities-mismatch"),
    pytest.param(_put("log", "counts", 1, 0), SnapshotError,
                 r"^snapshot log counts\[1\] must be at least 1, got 0$", id="count-zero"),
    pytest.param(_put("log", "counts", 0, -2), SnapshotError,
                 r"^snapshot log counts\[0\] must be at least 1, got -2$", id="count-negative"),
    pytest.param(_put("log", "counts", 2, 2), SnapshotError,
                 r"^snapshot log counts sum to 6, but the log has 7 pairs$", id="counts-sum"),
    # A repeated commodity names its row.
    pytest.param(_put("log", "commodities", 1, 1), SnapshotError,
                 r"^snapshot log row 0 repeats commodity 1$", id="row-repeats-commodity"),
    # Out-of-range values keep the errors re-recording the row raised.
    pytest.param(_put("log", "points", 1, 25), InvalidInstanceError,
                 r"^request 1 is located at unknown point 25$", id="point-out-of-range"),
    pytest.param(_put("log", "points", 0, -1), InvalidInstanceError,
                 r"^request point must be non-negative, got -1$", id="point-negative"),
    pytest.param(_put("log", "commodities", 3, 7), InvalidInstanceError,
                 r"^commodity 7 out of range \[0, 4\)$", id="commodity-out-of-range"),
    pytest.param(_put("log", "facilities", 5, 5), InfeasibleSolutionError,
                 r"^request 2: facility 5 does not exist$", id="unknown-facility"),
    pytest.param(_put("log", "facilities", 0, -1), InfeasibleSolutionError,
                 r"^request 0: facility -1 does not exist$", id="negative-facility"),
    pytest.param(_put("log", "facilities", 2, 2**70), InfeasibleSolutionError,
                 rf"^request 1: facility {2**70} does not exist$", id="facility-beyond-int64"),
    pytest.param(_put("store", "facilities", 1, 1, [0]), InfeasibleSolutionError,
                 r"^request 1: facility 1 does not offer commodity 2$", id="not-offered"),
    pytest.param(lambda state: (_put("log", "facilities", 5, 5)(state),
                                _put("log", "points", 1, 25)(state)),
                 InvalidInstanceError, r"^request 1 is located", id="first-bad-row-wins"),
]


@pytest.mark.parametrize("damage,error,message", DAMAGED_LOGS)
def test_restore_rejects_damaged_column_log(damage, error, message):
    """A damaged version-2 log is refused with an error naming the column
    and position, or its row, or with what re-recording the row raises."""
    session, instance = _session_for("pd-omflp", "grid-l1", 0)
    for request in instance.requests[:3]:
        session.submit(request.point, request.commodities)
    data = session.snapshot().to_dict()
    assert data["state"]["log"] == {
        "points": [19, 24, 21],
        "counts": [2, 2, 3],
        "commodities": [1, 3, 2, 3, 1, 2, 3],
        "facilities": [0, 0, 1, 1, 2, 2, 2],
    }
    damage(data["state"])
    with pytest.raises(error, match=message):
        OnlineSession.restore(
            data,
            algorithm=PDOMFLPAlgorithm(),
            metric=instance.metric,
            cost=instance.cost_function,
            commodities=instance.commodities,
        )


@pytest.mark.parametrize("version", [1, 2])
def test_a_refused_state_leaves_the_online_state_fresh(version):
    """A log refused after its store loaded leaves no facility behind: the
    undamaged state then loads into the same object and runs on equal."""
    session, instance = _session_for("pd-omflp", "grid-l1", 0)
    for request in instance.requests[:3]:
        session.submit(request.point, request.commodities)
    data = session.snapshot().to_dict()
    clean = v1_state_dict(data["state"]) if version == 1 else data["state"]
    damaged = json.loads(json.dumps(clean))
    if version == 1:
        damaged["requests"][1][0] = 10**6
    else:
        damaged["log"]["points"][1] = 10**6
    state = OnlineState(instance)
    with pytest.raises(InvalidInstanceError, match=r"^request 1 is located at unknown point"):
        state.load_state_dict(damaged)
    assert (state.num_recorded, len(state.store), state.current_costs()) == (0, 0, (0.0, 0.0))
    state.load_state_dict(clean)
    assert state.state_dict() == session.state.state_dict()

    algorithm = PDOMFLPAlgorithm()
    algorithm.prepare(instance, state, None)
    algorithm.load_state_dict(data["algorithm_state"])
    for request in instance.requests[3:]:
        session.submit(request.point, request.commodities)
        algorithm.process(request, state, None)
    expected = session.state.state_dict()
    assert {key: state.state_dict()[key] for key in ("store", "log")} == {
        key: expected[key] for key in ("store", "log")
    }
    assert state.current_costs() == session.state.current_costs()


@pytest.mark.parametrize(
    "point,error,message",
    [
        pytest.param(1.5, SnapshotError,
                     r"^snapshot store facilities\[1\] point must be a JSON integer, got 1\.5$",
                     id="point-float"),
        pytest.param(5, InvalidInstanceError, r"^facility point 5 out of range \[0, 3\)$",
                     id="point-out-of-range"),
    ],
)
def test_a_refused_store_load_leaves_the_store_empty(point, error, message):
    """A store row refused after an earlier row opened leaves no facility
    behind: the undamaged rows then load into the same store as into a
    fresh one."""
    metric = LineMetric([0.0, 1.0, 2.0])
    cost = PowerCost(2, 1.0)
    store = FacilityStore(metric, cost)
    with pytest.raises(error, match=message):
        store.load_state_dict({"facilities": [[0, [0, 1]], [point, [0]]]})
    assert (len(store), store.total_opening_cost) == (0, 0.0)
    assert store.nearest_offering(0, 1) is None and store.nearest_large(1) is None

    clean = {"facilities": [[0, [0, 1]]]}
    store.load_state_dict(clean)
    fresh = FacilityStore(metric, cost)
    fresh.load_state_dict(clean)
    assert store.state_dict() == fresh.state_dict() == clean
    assert store.facilities == fresh.facilities
    assert store.total_opening_cost == fresh.total_opening_cost
    for where in range(metric.num_points):
        assert store.nearest_large(where) == fresh.nearest_large(where)
        for commodity in range(cost.num_commodities):
            assert store.nearest_offering(commodity, where) == fresh.nearest_offering(
                commodity, where
            )


#: The committed snapshots written as version 1 that resume (the
#: single-commodity ones of an older algorithm state are refused by name).
RESUMABLE_GOLDEN = [
    "pd_omflp_snapshot.json",
    "per_commodity_fotakis_snapshot.json",
    "per_commodity_meyerson_snapshot.json",
    "rand_omflp_telemetry_snapshot.json",
]


@pytest.mark.parametrize("name", RESUMABLE_GOLDEN)
def test_a_version_1_file_snapshots_again_as_version_2_and_resumes_equal(name):
    from repro.scenarios import ScenarioSession

    data = json.loads((Path(__file__).resolve().parent / "golden" / name).read_text())
    assert data["version"] == 1 and {"requests", "assignments"} <= set(data["state"])
    resumed = ScenarioSession.restore(data)
    again = json.loads(resumed.snapshot().to_json())
    assert again["version"] == 2 and set(again["state"]) == {"store", "log", "trace"}
    assert v1_snapshot(again)["state"] == data["state"]
    twice = ScenarioSession.restore(again)
    assert twice.advance() == resumed.advance()
    records = twice.finalize(), resumed.finalize()
    assert records[0].total_cost == records[1].total_cost
    assert twice.session.state.state_dict() == resumed.session.state.state_dict()
    assert twice.session.algorithm.state_dict() == resumed.session.algorithm.state_dict()


# ---------------------------------------------------------------------------
# The codec: in-place compact encoding vs the deep-copied dictionary form
# ---------------------------------------------------------------------------
def _mid_stream_snapshot(algorithm_name: str) -> SessionSnapshot:
    """A traced snapshot after SPLIT requests on the algorithm's first grid scenario."""
    single_only = ALGORITHMS[algorithm_name][1]
    scenario_name = next(
        name for name, commodities, _ in SCENARIOS if single_only == (commodities == 1)
    )
    session, instance = _session_for(algorithm_name, scenario_name, 0)
    for request in instance.requests[:SPLIT]:
        session.submit(request.point, request.commodities)
    return session.snapshot()


@pytest.mark.parametrize("algorithm_name", list(ALGORITHMS))
def test_to_json_encodes_exactly_the_dictionary_form(algorithm_name):
    snapshot = _mid_stream_snapshot(algorithm_name)
    text = snapshot.to_json()
    assert text == json.dumps(snapshot.to_dict(), allow_nan=False)
    assert snapshot.to_json(indent=2) == json.dumps(
        snapshot.to_dict(), indent=2, allow_nan=False
    )

    # to_dict() is an independent copy: mutating it leaves the snapshot alone.
    data = snapshot.to_dict()
    data["state"]["log"]["points"].clear()
    data["state"]["log"]["points"].append(0)
    assert snapshot.to_json() == text


@pytest.mark.parametrize("algorithm_name", list(ALGORITHMS))
def test_snapshot_files_round_trip_compact_and_indented(algorithm_name, tmp_path):
    snapshot = _mid_stream_snapshot(algorithm_name)
    path = snapshot.save(tmp_path / "compact.json")
    assert path.read_text() == snapshot.to_json()
    assert SessionSnapshot.load(path) == snapshot

    # Files written indented (the codec's earlier on-disk format) still load.
    indented = tmp_path / "indented.json"
    indented.write_text(snapshot.to_json(indent=2))
    assert SessionSnapshot.load(indented) == snapshot


def test_to_json_still_refuses_nan():
    snapshot = _mid_stream_snapshot("pd-omflp")
    state = snapshot.to_dict()["state"]
    state["log"]["points"].append(float("nan"))
    with pytest.raises(ValueError):
        dataclasses.replace(snapshot, state=state).to_json()
