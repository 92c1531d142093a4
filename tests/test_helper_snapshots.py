"""Snapshots of the single-commodity helpers are checked, not coerced.

``meyerson-ofl``, ``fotakis-ofl`` and the two per-commodity baselines run a
single-commodity helper per commodity
(:class:`~repro.algorithms.online.meyerson_ofl.SingleCommodityMeyerson`,
:class:`~repro.algorithms.online.fotakis_ofl.SingleCommodityPrimalDual`).
The helpers read ``F(e)`` from the state, so their snapshot is the list of
``[commodity, helper state]`` pairs: ``{}`` for Meyerson, the bid history for
Fotakis.  Each damaged field raises a :class:`SnapshotError` naming it, and
an undamaged snapshot restores to a session that continues like the
uninterrupted one.

Snapshots written before the helpers dropped their facility lists and slot
maps are committed under ``tests/golden/``: the per-commodity ones resume
equal to an uninterrupted run (the loaders read only the fields they keep),
and the single-commodity ones, which had a ``helper`` field and no
``helpers``, are refused by that name.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.algorithms.online.per_commodity import (
    FotakisOFLAlgorithm,
    MeyersonOFLAlgorithm,
    PerCommodityAlgorithm,
)
from repro.api.session import OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import PowerCost
from repro.exceptions import SnapshotError
from repro.metric.factories import random_euclidean_metric
from repro.scenarios import ScenarioSession
from repro.utils.rng import rng_from_state

from oracles import v1_snapshot

#: Algorithm name -> (factory, |S|).
HELPER_ALGORITHMS: Dict[str, Tuple[Callable[[], Any], int]] = {
    "meyerson-ofl": (MeyersonOFLAlgorithm, 1),
    "fotakis-ofl": (FotakisOFLAlgorithm, 1),
    "per-commodity-fotakis": (lambda: PerCommodityAlgorithm("fotakis"), 3),
    "per-commodity-meyerson": (lambda: PerCommodityAlgorithm("meyerson"), 3),
}

NUM_POINTS = 10


def _session(name: str) -> OnlineSession:
    factory, num_commodities = HELPER_ALGORITHMS[name]
    return OnlineSession(
        factory(),
        random_euclidean_metric(NUM_POINTS, rng=1),
        PowerCost(num_commodities, 1.0),
        commodities=CommodityUniverse(num_commodities),
        rng=0,
    )


def _requests(name: str):
    """Requests that leave every helper with a facility and, for the
    per-commodity baselines, two helpers (commodities 0 and 2)."""
    if HELPER_ALGORITHMS[name][1] == 1:
        return [(3, [0]), (7, [0]), (3, [0]), (1, [0])]
    return [(3, [0]), (7, [0, 2]), (3, [0]), (1, [2])]


def _snapshot(name: str) -> Dict[str, Any]:
    session = _session(name)
    for point, commodities in _requests(name):
        session.submit(point, commodities)
    return json.loads(session.snapshot().to_json())


def _restore(name: str, data: Dict[str, Any]) -> OnlineSession:
    factory, num_commodities = HELPER_ALGORITHMS[name]
    return OnlineSession.restore(
        data,
        algorithm=factory(),
        metric=random_euclidean_metric(NUM_POINTS, rng=1),
        cost=PowerCost(num_commodities, 1.0),
        commodities=CommodityUniverse(num_commodities),
    )


def _put(*path_and_value):
    """A damage setting the algorithm state entry at ``path`` to ``value``."""
    *path, value = path_and_value

    def damage(state):
        target = state
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return damage


def _drop(*path):
    def damage(state):
        target = state
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return damage


#: (algorithm, damage to its algorithm state, message).
DAMAGED = [
    pytest.param("per-commodity-meyerson", _put("helpers", 1, 0, 2.5),
                 r"^helpers\[1\] commodity must be a JSON integer, got 2\.5$",
                 id="per-commodity-meyerson-helper-commodity-float"),
    pytest.param("per-commodity-fotakis", _put("helpers", 1, 0, 3),
                 r"^helpers\[1\] commodity must lie in \[0, 3\), got 3$",
                 id="per-commodity-commodity-out-of-range"),
    pytest.param("per-commodity-meyerson", _put("helpers", 1, 0, 0),
                 r"^helpers repeats commodity 0$", id="per-commodity-repeated-commodity"),
    pytest.param("per-commodity-fotakis", _put("helpers", {}),
                 r"^helpers must be a JSON list, got dict$", id="per-commodity-helpers-dict"),
    pytest.param("per-commodity-meyerson", _put("helpers", 0, 1, []),
                 r"^helpers\[0\]: Meyerson helper state must be a JSON object, got list$",
                 id="per-commodity-meyerson-helper-state-list"),
    pytest.param("meyerson-ofl", _drop("helpers"),
                 r"^meyerson-ofl state has no 'helpers' field$", id="meyerson-no-helper"),
    pytest.param("fotakis-ofl", _put("helpers", 0, 1, "history", "points", 1, 2.5),
                 r"^helpers\[0\]: bid slot 0 points\[1\] must be a JSON integer, got 2\.5$",
                 id="fotakis-history-point-float"),
    pytest.param("per-commodity-fotakis", _put("helpers", 1, 1, "history", "points", 0, 2.5),
                 r"^helpers\[1\]: bid slot 0 points\[0\] must be a JSON integer, got 2\.5$",
                 id="per-commodity-fotakis-history-point-float"),
]


@pytest.mark.parametrize("name,damage,message", DAMAGED)
def test_a_damaged_helper_snapshot_is_refused_by_name(name, damage, message):
    data = _snapshot(name)
    damage(data["algorithm_state"])
    with pytest.raises(SnapshotError, match=message):
        _restore(name, data)


def test_a_refused_helper_leaves_the_run_freshly_prepared():
    """A helper refused after an earlier one loaded leaves no helper behind:
    the undamaged state then loads into the same run, which goes on equal
    to the uninterrupted one."""
    name = "per-commodity-fotakis"
    session = _session(name)
    for point, commodities in _requests(name):
        session.submit(point, commodities)
    data = json.loads(session.snapshot().to_json())
    damaged = json.loads(json.dumps(data["algorithm_state"]))
    damaged["helpers"][1][1]["history"]["points"][0] = 2.5
    instance = Instance(
        random_euclidean_metric(NUM_POINTS, rng=1), PowerCost(3, 1.0), RequestSequence([])
    )
    state = OnlineState(instance)
    state.load_state_dict(data["state"])
    algorithm = PerCommodityAlgorithm("fotakis")
    algorithm.prepare(instance, state, None)
    with pytest.raises(SnapshotError, match=r"^helpers\[1\]: bid slot 0 points\[0\]"):
        algorithm.load_state_dict(damaged)
    algorithm.load_state_dict(data["algorithm_state"])
    assert algorithm.state_dict() == session.algorithm.state_dict()

    rng = rng_from_state(data["rng_state"])
    for index, (point, commodities) in enumerate(
        [(5, [0, 1]), (9, [2]), (3, [1]), (2, [0, 2])], start=session.num_requests
    ):
        session.submit(point, commodities)
        algorithm.process(Request(index, point, frozenset(commodities)), state, rng)
    assert state.current_costs() == session.state.current_costs()
    assert state.state_dict()["log"] == session.state.state_dict()["log"]
    assert algorithm.state_dict() == session.algorithm.state_dict()


@pytest.mark.parametrize("name", list(HELPER_ALGORITHMS))
def test_an_undamaged_helper_snapshot_restores_and_continues(name):
    data = _snapshot(name)
    restored = _restore(name, data)
    assert json.loads(json.dumps(restored.algorithm.state_dict())) == data["algorithm_state"]

    uninterrupted = _session(name)
    for point, commodities in _requests(name):
        uninterrupted.submit(point, commodities)
    for point, commodities in [(5, [0]), (9, [0]), (3, [0]), (2, [0])]:
        assert restored.submit(point, commodities) == uninterrupted.submit(point, commodities)
    assert restored.finalize().total_cost == uninterrupted.finalize().total_cost


# ---------------------------------------------------------------------------
# Snapshots written by the helpers that kept a facility list and a slot map
# ---------------------------------------------------------------------------
GOLDEN = Path(__file__).resolve().parent / "golden"

#: Each file holds a ScenarioSession snapshot after 24 of 60 clustered
#: requests (seed 0), written when every helper kept its own facility list
#: and its driver a slot -> facility-id map.  The totals of the full runs
#: were recorded with them.
OLDER_TOTALS = {
    "per-commodity-fotakis": 11.439065466518935,
    "per-commodity-meyerson": 11.778701706768665,
}


def _older_snapshot(name: str) -> Dict[str, Any]:
    return json.loads((GOLDEN / f"{name.replace('-', '_')}_snapshot.json").read_text())


@pytest.mark.parametrize("name", sorted(OLDER_TOTALS))
def test_an_older_per_commodity_snapshot_resumes_equal(name):
    data = _older_snapshot(name)
    assert {"helpers", "facility_of_slot"} <= set(data["algorithm_state"])
    resumed = ScenarioSession.restore(data)
    uninterrupted = ScenarioSession(data["spec"])
    for _ in range(data["num_requests"]):
        uninterrupted.step()
    # The golden file is version 1: compare the fresh snapshot's version-1 form.
    written = v1_snapshot(uninterrupted.snapshot().to_dict())
    for snapshot in (written, data):
        snapshot.pop("runtime_seconds")
        snapshot.pop("algorithm_state")
    assert written == data
    assert resumed.advance() == uninterrupted.advance()
    assert resumed.session.total_cost == uninterrupted.session.total_cost == OLDER_TOTALS[name]
    finished = [session.snapshot().to_dict() for session in (resumed, uninterrupted)]
    for snapshot in finished:
        snapshot.pop("runtime_seconds")
    assert finished[0] == finished[1]


@pytest.mark.parametrize("name", ["fotakis-ofl", "meyerson-ofl"])
def test_an_older_single_commodity_snapshot_is_refused_by_name(name):
    data = _older_snapshot(name)
    assert set(data["algorithm_state"]) == {"helper", "facility_of_slot"}
    with pytest.raises(SnapshotError, match=rf"^{name} state has no 'helpers' field$"):
        ScenarioSession.restore(data)
