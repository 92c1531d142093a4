"""Snapshots of the single-commodity helpers are checked, not coerced.

``meyerson-ofl``, ``fotakis-ofl`` and the two per-commodity baselines keep
their decisions in single-commodity helpers
(:class:`~repro.algorithms.online.meyerson_ofl.SingleCommodityMeyerson`,
:class:`~repro.algorithms.online.fotakis_ofl.SingleCommodityPrimalDual`)
plus a map from helper slot to facility id.  A restore used to coerce these
fields with ``int()`` and ``float()``: a facility point of 9.7 restored as
point 9, a facility id of 0.5 as facility 0, and a dual of ``"x"`` raised a
bare ``ValueError``.  Each damaged field now raises a :class:`SnapshotError`
naming it, and an undamaged snapshot still restores to a session that
continues like the uninterrupted one.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.algorithms.online.fotakis_ofl import FotakisOFLAlgorithm
from repro.algorithms.online.meyerson_ofl import MeyersonOFLAlgorithm
from repro.algorithms.online.per_commodity import PerCommodityAlgorithm
from repro.api.session import OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.costs.count_based import PowerCost
from repro.exceptions import SnapshotError
from repro.metric.factories import random_euclidean_metric

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
    # Values the loaders used to coerce.
    pytest.param("meyerson-ofl", _put("helper", "facility_points", 0, 9.7),
                 r"^Meyerson helper facility_points\[0\] must be a JSON integer, got 9\.7$",
                 id="meyerson-point-float"),
    pytest.param("meyerson-ofl", _put("facility_of_slot", 1, 1, 0.5),
                 r"^facility_of_slot\[1\] facility id must be a JSON integer, got 0\.5$",
                 id="meyerson-facility-id-float"),
    pytest.param("meyerson-ofl", _put("facility_of_slot", 0, 0, "0"),
                 r"^facility_of_slot\[0\] slot must be a JSON integer, got '0'$",
                 id="meyerson-slot-string"),
    pytest.param("fotakis-ofl", _put("helper", "facility_points", 0, 9.7),
                 r"^primal-dual helper facility_points\[0\] must be a JSON integer, got 9\.7$",
                 id="fotakis-point-float"),
    pytest.param("fotakis-ofl", _put("helper", "dual_values", 1, "x"),
                 r"^primal-dual helper dual_values\[1\] must be a JSON number, got 'x'$",
                 id="fotakis-dual-string"),
    pytest.param("fotakis-ofl", _put("helper", "dual_values", 0, True),
                 r"^primal-dual helper dual_values\[0\] must be a JSON number, got True$",
                 id="fotakis-dual-bool"),
    pytest.param("fotakis-ofl", _put("facility_of_slot", 0, 1, 0.5),
                 r"^facility_of_slot\[0\] facility id must be a JSON integer, got 0\.5$",
                 id="fotakis-facility-id-float"),
    pytest.param("per-commodity-fotakis", _put("helpers", 1, 1, "facility_points", 0, 9.7),
                 r"^helpers\[1\]: primal-dual helper facility_points\[0\] must be a JSON integer, "
                 r"got 9\.7$", id="per-commodity-fotakis-point-float"),
    pytest.param("per-commodity-fotakis", _put("helpers", 0, 1, "dual_values", 2, "x"),
                 r"^helpers\[0\]: primal-dual helper dual_values\[2\] must be a JSON number, "
                 r"got 'x'$", id="per-commodity-fotakis-dual-string"),
    pytest.param("per-commodity-fotakis", _put("facility_of_slot", 1, 2, 0.5),
                 r"^facility_of_slot\[1\] facility id must be a JSON integer, got 0\.5$",
                 id="per-commodity-fotakis-facility-id-float"),
    pytest.param("per-commodity-meyerson", _put("helpers", 0, 1, "facility_points", 1, 9.7),
                 r"^helpers\[0\]: Meyerson helper facility_points\[1\] must be a JSON integer, "
                 r"got 9\.7$", id="per-commodity-meyerson-point-float"),
    pytest.param("per-commodity-meyerson", _put("facility_of_slot", 3, 0, 2.0),
                 r"^facility_of_slot\[3\] commodity must be a JSON integer, got 2\.0$",
                 id="per-commodity-meyerson-commodity-float"),
    pytest.param("per-commodity-meyerson", _put("helpers", 1, 0, 2.5),
                 r"^helpers\[1\] commodity must be a JSON integer, got 2\.5$",
                 id="per-commodity-meyerson-helper-commodity-float"),
    # Values out of range, which used to fail later or not at all.
    pytest.param("meyerson-ofl", _put("helper", "facility_points", 2, NUM_POINTS),
                 r"^Meyerson helper facility_points\[2\] must lie in \[0, 10\), got 10$",
                 id="meyerson-point-out-of-range"),
    pytest.param("fotakis-ofl", _put("helper", "facility_points", 0, -1),
                 r"^primal-dual helper facility_points\[0\] must lie in \[0, 10\), got -1$",
                 id="fotakis-point-negative"),
    pytest.param("per-commodity-fotakis", _put("helpers", 1, 0, 3),
                 r"^helpers\[1\] commodity must lie in \[0, 3\), got 3$",
                 id="per-commodity-commodity-out-of-range"),
    pytest.param("per-commodity-meyerson", _put("helpers", 1, 0, 0),
                 r"^helpers repeats commodity 0$", id="per-commodity-repeated-commodity"),
    # Fields of the wrong shape, or missing.
    pytest.param("meyerson-ofl", _put("facility_of_slot", 0, [0]),
                 r"^facility_of_slot\[0\] must have 2 items, got 1$", id="meyerson-short-pair"),
    pytest.param("meyerson-ofl", _drop("helper"),
                 r"^meyerson-ofl state has no 'helper' field$", id="meyerson-no-helper"),
    pytest.param("fotakis-ofl", _drop("helper", "dual_values"),
                 r"^primal-dual helper state has no 'dual_values' field$", id="fotakis-no-duals"),
    pytest.param("per-commodity-fotakis", _put("helpers", {}),
                 r"^helpers must be a JSON list, got dict$", id="per-commodity-helpers-dict"),
    pytest.param("per-commodity-meyerson", _drop("facility_of_slot"),
                 r"^per-commodity-meyerson state has no 'facility_of_slot' field$",
                 id="per-commodity-no-slot-map"),
]


@pytest.mark.parametrize("name,damage,message", DAMAGED)
def test_a_damaged_helper_snapshot_is_refused_by_name(name, damage, message):
    data = _snapshot(name)
    damage(data["algorithm_state"])
    with pytest.raises(SnapshotError, match=message):
        _restore(name, data)


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
