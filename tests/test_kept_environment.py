"""An evicted session's environment is kept for its reload, and only that.

A :class:`~repro.service.SessionManager` with a ``max_live_sessions`` bound
keeps, when it evicts a session whose spec draws a stock workload, the
``(spec, instance)`` pair: the request-free instance the session ran on,
with the tables its algorithm derived from the metric and the cost
(:mod:`repro.accel.tables`).  The next reload of that name restores onto the
kept instance when the snapshot's spec equals the kept spec.  These tests pin
that

* sessions bounced through disk under one live slot equal never-evicted
  ones, with exact ``==`` on every event, the finalize totals, the algorithm
  and online state and the RNG state, whether or not a reload hits the kept
  set;
* a hit restores onto the very kept instance and builds no cost classes
  again: one ``CostClassIndex`` per configuration per session, for
  RAND-OMFLP and for the per-commodity Meyerson helpers alike;
* only the environment is kept: the evicted algorithm and state are freed;
* a snapshot file replaced on disk with another spec, and a restarted
  manager, rebuild the environment from the spec;
* ``close`` and ``finalize`` drop the entry, the kept set never exceeds the
  bound, and without a bound nothing is kept;
* evicting a session that is already on disk changes nothing;
* the tables hand out read-only cost vectors.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from typing import List

import numpy as np
import pytest

import repro.accel.tables as tables_module
from repro.api.session import OnlineSession
from repro.costs.classes import CostClassIndex
from repro.exceptions import ServiceError
from repro.service import SessionManager, components_from_spec
from repro.utils.rng import rng_state

ALGORITHMS = ("rand-omflp", "pd-omflp", "per-commodity-meyerson")

WORKLOAD = {"kind": "uniform", "num_requests": 36, "num_commodities": 4, "num_points": 16}

#: Burst order over three sessions under one live slot.  Only the last
#: evicted session is kept, so a switch back to it hits the kept set and a
#: switch to the third session misses it.
ORDER = "ababcacbcbaba"

BURST = 3


def _spec(seed: int, algorithm: str = "rand-omflp", **workload) -> dict:
    return {"algorithm": algorithm, "workload": dict(WORKLOAD, **workload), "seed": seed}


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


def _requests(spec: dict) -> List[tuple]:
    return [(r.point, r.commodities) for r in components_from_spec(spec)[1].requests]


def _live_session(manager: SessionManager, name: str) -> OnlineSession:
    return manager._live[name].session


def _assert_same_run(session: OnlineSession, reference: OnlineSession) -> None:
    """Algorithm state, online state and RNG state, compared with ``==``."""
    assert session.algorithm.state_dict() == reference.algorithm.state_dict()
    assert session.state.state_dict() == reference.state.state_dict()
    assert rng_state(session._rng) == rng_state(reference._rng)


# ---------------------------------------------------------------------------
# The grid: hits and misses against never-evicted sessions
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_evicted_sessions_equal_never_evicted_ones(algorithm, tmp_path):
    specs = {name: _spec(seed, algorithm) for name, seed in zip("abc", (3, 4, 5))}
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    references = {name: _reference_session(spec) for name, spec in specs.items()}
    requests = {name: _requests(spec) for name, spec in specs.items()}
    served: Counter = Counter()
    instances = {}
    for name, spec in specs.items():
        manager.create(name, spec)
        instances[name] = _live_session(manager, name)._instance
    hits = misses = 0
    for name in ORDER:
        kept = manager._kept.get(name)
        if name in manager._live:
            evicted = None
        else:
            previous = _live_session(manager, next(iter(manager._live)))
            evicted = (weakref.ref(previous.algorithm), weakref.ref(previous.state))
            del previous
        for point, commodities in requests[name][served[name] : served[name] + BURST]:
            event = manager.submit(name, point, commodities)
            assert event == references[name].submit(point, commodities)
        served[name] += BURST
        session = _live_session(manager, name)
        if kept is not None:
            assert session._instance is kept[1] is instances[name]
            hits += 1
        elif evicted is not None:
            assert session._instance is not instances[name]
            instances[name] = session._instance
            misses += 1
        if evicted is not None:
            # The evicted session's algorithm and state are gone; only its
            # instance may stay behind.
            gc.collect()
            assert evicted[0]() is None and evicted[1]() is None
        _assert_same_run(session, references[name])
        assert len(manager._kept) <= 1
        del session
    assert hits >= 5 and misses >= 3
    for name, reference in references.items():
        record = manager.finalize(name)
        expected = reference.finalize()
        assert record.total_cost == expected.total_cost
        assert record.opening_cost == expected.opening_cost
        assert record.connection_cost == expected.connection_cost
        assert record.num_facilities == expected.num_facilities
        assert record.num_requests == expected.num_requests
    assert not manager._kept


class _CountingClasses(CostClassIndex):
    """A CostClassIndex that logs ``(metric id, configuration)`` per build."""

    builds: List[tuple] = []

    def __init__(self, metric, cost_function, configuration) -> None:
        super().__init__(metric, cost_function, configuration)
        self.builds.append((id(metric), self.configuration))


SINGLETONS = [frozenset({e}) for e in range(WORKLOAD["num_commodities"])]


@pytest.mark.parametrize(
    "algorithm,configurations",
    [
        # All four singletons and the full set.
        ("rand-omflp", SINGLETONS + [frozenset(range(WORKLOAD["num_commodities"]))]),
        # One singleton per helper: the helpers read the instance's tables.
        ("per-commodity-meyerson", SINGLETONS),
    ],
)
def test_kept_reloads_build_each_configuration_once_per_session(
    algorithm, configurations, tmp_path, monkeypatch
):
    """Two sessions alternating under one live slot: every reload after the
    first eviction hits, so no cost class is built twice for one session."""
    monkeypatch.setattr(_CountingClasses, "builds", [])
    monkeypatch.setattr(tables_module, "CostClassIndex", _CountingClasses)
    specs = {"a": _spec(6, algorithm), "b": _spec(7, algorithm)}
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    requests = {name: _requests(spec) for name, spec in specs.items()}
    for name, spec in specs.items():
        manager.create(name, spec)
    metrics = {}
    for step in range(6):
        for name in specs:
            for point, commodities in requests[name][step * BURST : (step + 1) * BURST]:
                manager.submit(name, point, commodities)
            metrics[name] = id(_live_session(manager, name)._instance.metric)
    assert manager.metrics()["counters"]["reloads"] == 12
    builds = Counter(_CountingClasses.builds)
    assert builds and set(builds.values()) == {1}
    for metric in metrics.values():
        assert {key[1] for key in builds if key[0] == metric} == set(configurations)


# ---------------------------------------------------------------------------
# Where the kept path does not apply
# ---------------------------------------------------------------------------
def test_snapshot_replaced_with_another_spec_reloads_through_the_full_build(tmp_path):
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    manager.create("a", _spec(3))
    manager.create("b", _spec(4))  # evicts "a", keeping its instance
    kept = manager._kept["a"][1]
    # Another session, with another environment, now sits in a's file.
    other = _spec(3, num_points=12)
    replacement = _reference_session(other)
    requests = _requests(other)
    for point, commodities in requests[:4]:
        replacement.submit(point, commodities)
    replacement.snapshot(spec=other).save(tmp_path / "a.session.json")

    for point, commodities in requests[4:10]:
        assert manager.submit("a", point, commodities) == replacement.submit(point, commodities)
    session = _live_session(manager, "a")
    assert session._instance is not kept
    assert session._instance.num_points == 12
    _assert_same_run(session, replacement)


def test_restarted_manager_rebuilds_and_matches(tmp_path):
    specs = {"a": _spec(8, "pd-omflp"), "b": _spec(9, "pd-omflp")}
    references = {name: _reference_session(spec) for name, spec in specs.items()}
    requests = {name: _requests(spec) for name, spec in specs.items()}
    first = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    for name, spec in specs.items():
        first.create(name, spec)
    served: Counter = Counter()

    def burst(manager: SessionManager, name: str) -> None:
        for point, commodities in requests[name][served[name] : served[name] + BURST]:
            assert manager.submit(name, point, commodities) == references[name].submit(
                point, commodities
            )
        served[name] += BURST

    for name in "abab":
        burst(first, name)
    old_instances = {name: instance for name, (_, instance) in first._kept.items()}
    old_instances["b"] = _live_session(first, "b")._instance
    assert first.evict_all() == ["b"]

    second = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    assert not second._kept
    for name in "abab":
        burst(second, name)
        assert _live_session(second, name)._instance is not old_instances[name]
    for name, reference in references.items():
        assert second.finalize(name).total_cost == reference.finalize().total_cost


def test_close_and_finalize_drop_the_kept_entry(tmp_path):
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=2)
    for index, name in enumerate("abcd"):
        manager.create(name, _spec(index))
        assert len(manager._kept) <= 2
    assert list(manager._kept) == ["a", "b"]
    instance = weakref.ref(manager._kept["a"][1])
    manager.close("a")
    assert "a" not in manager._kept
    gc.collect()
    assert instance() is None
    manager.finalize("b")  # reloads "b", evicting "c"
    assert list(manager._kept) == ["c"]
    manager.evict("d")
    assert list(manager._kept) == ["c", "d"]
    manager.close("c")
    assert list(manager._kept) == ["d"]


def test_nothing_is_kept_without_a_bound(tmp_path):
    manager = SessionManager(snapshot_dir=tmp_path)
    manager.create("a", _spec(1))
    manager.evict("a")
    assert not manager._kept


def test_explicit_and_scenario_specs_are_not_kept(tmp_path):
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    manager.create(
        "explicit",
        {
            "algorithm": "pd-omflp",
            "metric": {"kind": "uniform-line", "num_points": 8},
            "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
            "requests": [],
            "seed": 0,
        },
    )
    manager.create(
        "scenario",
        {
            "algorithm": "pd-omflp",
            "scenario": {"kind": "uniform", "num_requests": 8, "num_commodities": 4},
            "seed": 0,
        },
    )
    manager.create("workload", _spec(2))
    assert not manager._kept


# ---------------------------------------------------------------------------
# Evicting a session that is already on disk
# ---------------------------------------------------------------------------
def test_evicting_an_evicted_session_changes_nothing(tmp_path):
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    manager.create("a", _spec(1))
    manager.create("b", _spec(2))  # evicts "a"
    counters = dict(manager.metrics()["counters"])
    text = (tmp_path / "a.session.json").read_text()

    assert manager.evict("a") == tmp_path / "a.session.json"
    assert manager.metrics()["counters"] == counters
    assert sorted(manager.metrics()["sessions"]) == ["b"]
    assert (tmp_path / "a.session.json").read_text() == text
    assert list(manager._kept) == ["a"]


def test_evict_still_refuses_unknown_and_finalized_sessions(tmp_path):
    with pytest.raises(ServiceError, match="eviction needs a snapshot_dir"):
        SessionManager().evict("a")
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    manager.create("a", _spec(1))
    with pytest.raises(ServiceError, match="unknown session 'nope'"):
        manager.evict("nope")
    manager.finalize("a")
    with pytest.raises(ServiceError, match="session 'a' is finalized"):
        manager.evict("a")
    with pytest.raises(ServiceError, match="invalid session name"):
        manager.evict("../escape")


# ---------------------------------------------------------------------------
# The tables
# ---------------------------------------------------------------------------
def test_cost_vectors_are_read_only_and_shared():
    _, instance, _ = components_from_spec(_spec(4, "pd-omflp"))
    tables = instance.tables
    assert instance.tables is tables
    cost = instance.cost_function
    points = list(range(instance.num_points))
    for configuration in ((2,), cost.full_set, frozenset({0, 3})):
        vector = tables.cost_vector(configuration)
        assert np.array_equal(vector, cost.costs_over_points(configuration, points))
        assert vector.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0.0
        assert tables.cost_vector(configuration) is vector
    assert tables.cost_classes((1,)) is tables.cost_classes((1,))
    # Another form of one commodity set gets an equal table.
    assert np.array_equal(tables.cost_vector(frozenset({2})), tables.cost_vector((2,)))
    assert tables.cost_classes(frozenset({1})).classes == tables.cost_classes((1,)).classes
