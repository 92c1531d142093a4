"""Reloads rebuild only the environment, and an opened facility reads one distance column.

A session restored from a snapshot with a ``workload`` spec needs the metric,
the cost and the commodities, which the paper's online model fixes in
advance, but none of the workload's requests: the snapshot carries the
request log and the RNG state.  These tests pin that

* the environment a restore draws equals the full draw's, exactly;
* a service that evicts and reloads through it stays bit-identical to
  never-evicted sessions, also for a spec with its own ``rng`` key;
* a restore draws no request, while a custom workload builder still gets
  the full build;
* ``FacilityStore.open`` reads a new facility's ``distances_to`` column
  once for all the trackers it joins, and no tracker writes into it;
* a restore reads each facility's column once, for its trackers and the
  logged connection costs alike.

``tests/test_accel_equivalence.py`` pins the tracker answers against the
reference scan.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import numpy as np
import pytest

from repro.accel import NearestSetTracker
from repro.api.components import WORKLOADS
from repro.api.session import OnlineSession
from repro.core.assignment import Assignment
from repro.core.facility import FacilityStore
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import PowerCost
from repro.metric.base import MetricSpace
from repro.metric.factories import random_euclidean_metric
from repro.scenarios.base import ScenarioStream
from repro.service import SessionManager, components_from_spec
from repro.service.snapshot import _restore_components
from repro.workloads import uniform_workload

from oracles import v1_state_dict

#: One parameter set per stock workload kind; ``clustered`` is the
#: ``service-mixed`` benchmark's spec.
WORKLOAD_CASES: Dict[str, dict] = {
    "uniform": {"kind": "uniform", "num_requests": 24, "num_commodities": 5, "num_points": 12},
    "uniform-line": {
        "kind": "uniform",
        "num_requests": 24,
        "num_commodities": 5,
        "num_points": 12,
        "metric_kind": "line",
    },
    "clustered": {
        "kind": "clustered",
        "num_requests": 256,
        "num_commodities": 8,
        "num_clusters": 8,
        "points_per_cluster": 32,
    },
    "zipf": {"kind": "zipf", "num_requests": 24, "num_commodities": 6, "num_points": 10},
    "service-network": {
        "kind": "service-network",
        "num_requests": 24,
        "num_services": 6,
        "num_nodes": 12,
    },
}

#: Online algorithms driven through the evicting service: the randomized
#: OMFLP algorithm, and one per single-commodity helper that owns a tracker.
SERVICE_ALGORITHMS = ("rand-omflp", "per-commodity-fotakis", "per-commodity-meyerson")


def _spec(workload: dict, seed: int, algorithm: str = "rand-omflp") -> dict:
    return {"algorithm": algorithm, "workload": dict(workload), "seed": seed}


def _reference_session(spec: dict) -> OnlineSession:
    """A never-evicted session built exactly as SessionManager builds one."""
    algorithm, instance, generator = components_from_spec(spec)
    return OnlineSession(
        algorithm,
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=generator,
    )


def _assert_same_environment(spec: dict) -> None:
    """The restore's environment equals the full draw's, compared with ``==``."""
    algorithm, instance, _ = components_from_spec(spec)
    restored_algorithm, metric, cost, commodities = _restore_components(spec)
    assert restored_algorithm.name == algorithm.name
    full_metric = instance.metric
    full_cost = instance.cost_function
    assert type(metric) is type(full_metric)
    assert metric.num_points == full_metric.num_points
    for point in range(metric.num_points):
        assert np.array_equal(metric.distances_from(point), full_metric.distances_from(point))
    assert type(cost) is type(full_cost)
    assert cost.num_commodities == full_cost.num_commodities
    for point in range(metric.num_points):
        assert cost.full_cost(point) == full_cost.full_cost(point)
        for commodity in range(cost.num_commodities):
            assert cost.singleton_cost(point, commodity) == full_cost.singleton_cost(
                point, commodity
            )
    universe = instance.commodities
    assert commodities.size == universe.size
    assert [commodities.name_of(e) for e in range(commodities.size)] == [
        universe.name_of(e) for e in range(universe.size)
    ]


def _run_evicting_service(specs: Dict[str, dict], tmp_path, *, bursts: int = 4, burst: int = 3):
    """Alternate bursts between sessions under one live slot; compare to references.

    Every switch evicts the other session to disk and reloads this one.
    Returns the number of reloads.
    """
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    references = {}
    requests: Dict[str, List] = {}
    for name, spec in specs.items():
        manager.create(name, spec)
        references[name] = _reference_session(spec)
        requests[name] = list(components_from_spec(spec)[1].requests)
    for step in range(bursts):
        for name in specs:
            for request in requests[name][step * burst : (step + 1) * burst]:
                event = manager.submit(name, request.point, request.commodities)
                assert event == references[name].submit(request.point, request.commodities)
    for name, reference in references.items():
        record = manager.finalize(name)
        expected = reference.finalize()
        assert record.total_cost == expected.total_cost
        assert record.opening_cost == expected.opening_cost
        assert record.connection_cost == expected.connection_cost
        assert record.num_facilities == expected.num_facilities
    return manager.metrics()["counters"]["reloads"]


# ---------------------------------------------------------------------------
# The environment-only build
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("case", sorted(WORKLOAD_CASES))
def test_restore_environment_equals_the_full_draw(case, seed):
    _assert_same_environment(_spec(WORKLOAD_CASES[case], seed))


@pytest.mark.parametrize("algorithm", SERVICE_ALGORITHMS)
@pytest.mark.parametrize("case", sorted(WORKLOAD_CASES))
def test_evicting_service_matches_never_evicted_sessions(case, algorithm, tmp_path):
    specs = {
        name: _spec(WORKLOAD_CASES[case], seed, algorithm)
        for name, seed in (("a", 3), ("b", 4))
    }
    assert _run_evicting_service(specs, tmp_path) >= 7


def test_workload_spec_with_its_own_rng_key(tmp_path):
    """A spec's ``rng`` wins over the seed, in the full draw and on restore alike."""
    workload = dict(WORKLOAD_CASES["uniform"], rng=11)
    _assert_same_environment(_spec(workload, 5))
    seeded_metric = components_from_spec(_spec(WORKLOAD_CASES["uniform"], 5))[1].metric
    own_metric = _restore_components(_spec(workload, 5))[1]
    assert not np.array_equal(own_metric.distances_from(0), seeded_metric.distances_from(0))
    assert _run_evicting_service({"a": _spec(workload, 5), "b": _spec(workload, 6)}, tmp_path)


@pytest.mark.parametrize("case", sorted(WORKLOAD_CASES))
def test_restore_draws_no_request(case, monkeypatch):
    spec = _spec(WORKLOAD_CASES[case], 1)
    session = _reference_session(spec)
    for request in components_from_spec(spec)[1].requests[:5]:
        session.submit(request.point, request.commodities)
    text = session.snapshot(spec=spec).to_json()

    def refuse(self, count):
        raise AssertionError(f"drew {count} requests")

    monkeypatch.setattr(ScenarioStream, "take", refuse)
    resumed = OnlineSession.restore(text)
    assert resumed.num_requests == 5
    assert resumed.total_cost == session.total_cost
    # The guard bites: creating a session still draws every request.
    with pytest.raises(AssertionError, match="drew 24|drew 256"):
        components_from_spec(spec)


def test_custom_builder_reloads_through_the_full_build(monkeypatch, tmp_path):
    """A builder registered under a stock kind is not a scenario adapter."""
    calls = []

    def custom_uniform(*, rng=None, **params):
        calls.append(params["num_requests"])
        return uniform_workload(rng=rng, **params)

    monkeypatch.setitem(WORKLOADS._builders, "uniform", custom_uniform)
    specs = {"a": _spec(WORKLOAD_CASES["uniform"], 7), "b": _spec(WORKLOAD_CASES["uniform"], 8)}
    reloads = _run_evicting_service(specs, tmp_path)
    # Two creates, two references, two request lists, then one full build
    # per reload.
    assert reloads >= 7
    assert len(calls) == 6 + reloads


# ---------------------------------------------------------------------------
# One distance row per opened facility
# ---------------------------------------------------------------------------
class _CountingMetric(MetricSpace):
    """Counts row reads; ``distances_to`` hands out its internal buffer."""

    def __init__(self, inner: MetricSpace) -> None:
        self._matrix = np.array(inner.pairwise_matrix(), dtype=np.float64)
        self.calls: Counter = Counter()

    @property
    def num_points(self) -> int:
        return self._matrix.shape[0]

    def distances_from(self, point: int) -> np.ndarray:
        self.calls["distances_from"] += 1
        return self._matrix[point]

    def distances_to(self, point: int) -> np.ndarray:
        # The matrix is symmetric, so the row is the column.
        self.calls["distances_to"] += 1
        return self._matrix[point]


def test_opening_a_large_facility_reads_one_column():
    metric = _CountingMetric(random_euclidean_metric(16, rng=3))
    cost = PowerCost(8, 1.0)
    store = FacilityStore(metric, cost)
    before = metric._matrix.copy()
    store.open(5, cost.full_set)
    assert metric.calls == Counter({"distances_to": 1})
    for point in range(metric.num_points):
        expected = before[5, point]
        assert store.distance_to_nearest_large(point) == expected
        for commodity in range(cost.num_commodities):
            assert store.distance_to_nearest(commodity, point) == expected
    store.open(11, [0, 3])
    store.open(2, cost.full_set)
    assert metric.calls == Counter({"distances_to": 3})
    # Every tracker folded the metric's own buffer; none wrote into it.
    assert np.array_equal(metric._matrix, before)


def test_a_restore_reads_one_column_per_facility():
    """Restoring a state with F facilities reads F ``distances_to`` columns:
    each is folded into its facility's trackers and read at the points of the
    requests that facility serves.  No ``distances_from`` row is read, in
    either snapshot format."""
    metric = _CountingMetric(random_euclidean_metric(16, rng=3))
    instance = Instance(metric, PowerCost(3, 1.0), RequestSequence([]))
    state = OnlineState(instance)
    anchor = Request(index=0, point=0, commodities=frozenset({0}))
    # Facility 4 serves no request.
    for point, configuration in [(5, {0, 1, 2}), (11, {0}), (2, {1}), (7, {2}), (9, {0, 1})]:
        state.open_facility(anchor, point, configuration)
    # Served by one, one (two commodities), two, three and two facilities.
    served = [(3, {0: 0}), (8, {1: 0, 2: 0}), (1, {0: 1, 1: 2}), (14, {2: 3, 0: 1, 1: 2}),
              (3, {0: 1, 2: 0})]
    for index, (point, pairs) in enumerate(served):
        request = Request(index=index, point=point, commodities=frozenset(pairs))
        state.record_assignment(request, Assignment(index, dict(pairs)))
    snapshot = state.state_dict()
    for data in (snapshot, v1_state_dict(snapshot)):
        metric.calls.clear()
        restored = OnlineState(instance)
        restored.load_state_dict(data)
        assert metric.calls == Counter({"distances_to": 5})
        assert restored.current_costs() == state.current_costs()
        assert restored.state_dict() == snapshot


def test_trackers_sharing_a_column_leave_it_unchanged():
    metric = random_euclidean_metric(12, rng=5)
    first = metric.distances_to(4).copy()
    second = metric.distances_to(9).copy()
    first_seen, second_seen = first.copy(), second.copy()
    trackers = [NearestSetTracker() for _ in range(3)]
    for tracker in trackers:
        tracker.add(first, tag=0)
    for tracker in trackers:
        tracker.add(second, tag=1)
    assert np.array_equal(first, first_seen)
    assert np.array_equal(second, second_seen)
    for tracker in trackers:
        for point in range(metric.num_points):
            tag = 1 if second[point] < first[point] else 0
            assert tracker.nearest(point) == (tag, float(min(first[point], second[point])))
