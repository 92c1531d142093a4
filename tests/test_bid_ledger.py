"""The bid ledger of the primal–dual algorithms, against its reference expression.

:class:`~repro.accel.history.BidHistoryBuffer` keeps one run's bid
histories in slots (PD-OMFLP: one per commodity and one for the large
configuration; the Fotakis helper: one), each distinct point's distance row
once, and every slot's running bid sum.  These tests pin that

* every slot's ``base`` equals ``sum_j (min{dual_j, nearest_j} - d(., j))_+``
  over its entries bit for bit (``np.array_equal``), under random
  interleavings of appends, openings that lower the bids of a random subset
  of slots, reads and a strict-JSON snapshot and reload, at n = 1 (numpy sums
  the column pairwise), 2 and 256;
* a PD-OMFLP restore reads each distinct point's row at most once;
* a finished 8 x 128-point PD-OMFLP run of 1 000 requests holds at most
  6 MiB of bid state (the per-commodity buffers of full row copies held
  ~30 MiB);
* PD-OMFLP's ``state_dict()`` is byte for byte the one the per-commodity
  buffers wrote, and a snapshot they wrote resumes equal;
* damaged bid entries in a snapshot raise a ``SnapshotError`` naming the
  field, instead of restoring coerced, aliased or silently replaced bids;
* so do damaged PD-OMFLP duals, before the algorithm changes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.accel.history import BidHistoryBuffer
from repro.algorithms.base import run_online
from repro.algorithms.online.per_commodity import FotakisOFLAlgorithm
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.api.session import OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import PowerCost
from repro.exceptions import SnapshotError
from repro.metric.base import MetricSpace
from repro.metric.factories import random_euclidean_metric
from repro.metric.grid import GridMetric
from repro.metric.single_point import SinglePointMetric
from repro.scenarios import ScenarioSession
from repro.utils.rng import ensure_rng
from repro.workloads.clustered import clustered_workload

SEEDS = [0, 1, 2]

#: Slots of the random interleavings (PD-OMFLP at |S| = 3).
SLOTS = 4

#: (num_points, share of steps that open a facility).  At n = 1 an opening
#: zeroes every bid, so the case without openings is the one whose nonzero
#: bids expose a running sum standing in for numpy's pairwise column sum.
CASES = [(1, 0.0), (1, 0.2), (2, 0.2), (256, 0.2)]


class _Reference:
    """One slot's entries and the scan the ledger replaces."""

    def __init__(self, num_points: int) -> None:
        self.num_points = num_points
        self.points: List[int] = []
        self.duals: List[float] = []
        self.nearest: List[float] = []
        self.rows: List[np.ndarray] = []

    def base(self) -> np.ndarray:
        if not self.rows:
            return np.zeros(self.num_points)
        bids = np.array([min(dual, near) for dual, near in zip(self.duals, self.nearest)])
        return np.maximum(bids[:, None] - np.vstack(self.rows), 0.0).sum(axis=0)


@pytest.mark.parametrize("num_points,open_share", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_slot_matches_its_reference_under_random_interleavings(
    num_points, open_share, seed
):
    """``eager`` reads every slot after each step; ``lazy`` only on the random
    read steps, so it also appends to slots whose sum is stale."""
    rng = ensure_rng(seed)
    metric = (
        SinglePointMetric() if num_points == 1 else random_euclidean_metric(num_points, rng=seed)
    )
    eager, lazy = BidHistoryBuffer(metric, SLOTS), BidHistoryBuffer(metric, SLOTS)
    slots = [_Reference(num_points) for _ in range(SLOTS)]
    entries = 0
    while entries < 600:
        step = rng.uniform()
        if step < 0.6:
            slot = int(rng.integers(0, SLOTS))
            point = int(rng.integers(0, num_points))
            dual = float(rng.uniform(0.0, 0.1))
            near = float("inf") if rng.uniform() < 0.3 else float(rng.uniform(0.0, 0.1))
            row = metric.distances_from(point)
            eager.append(point, dual, near, slot=slot)
            lazy.append(point, dual, near, slot=slot)
            reference = slots[slot]
            reference.points.append(point)
            reference.duals.append(dual)
            reference.nearest.append(near)
            reference.rows.append(row.copy())
            entries += 1
        elif step < 0.6 + open_share:
            opened = metric.distances_from(int(rng.integers(0, num_points)))
            for slot in np.flatnonzero(rng.uniform(size=SLOTS) < 0.5).tolist():
                reference = slots[slot]
                reference.nearest = [
                    min(near, float(opened[p]))
                    for p, near in zip(reference.points, reference.nearest)
                ]
                eager.update_nearest(opened, slot=slot)
                lazy.update_nearest(opened, slot=slot)
        elif step < 0.97:
            slot = int(rng.integers(0, SLOTS))
            assert np.array_equal(lazy.base(slot), slots[slot].base())
        else:
            states = [json.loads(json.dumps(eager.state_dict(slot))) for slot in range(SLOTS)]
            assert [lazy.state_dict(slot) for slot in range(SLOTS)] == states
            eager, lazy = BidHistoryBuffer(metric, SLOTS), BidHistoryBuffer(metric, SLOTS)
            for slot in range(SLOTS):
                eager.load_state_dict(states[slot], slot=slot)
                lazy.load_state_dict(states[slot], slot=slot)
        for slot in range(SLOTS):
            assert np.array_equal(eager.base(slot), slots[slot].base())
    assert len(eager) == len(lazy) == entries
    for slot in range(SLOTS):
        assert lazy.entries(slot) == len(slots[slot].points)
        assert np.array_equal(lazy.base(slot), slots[slot].base())


def test_rows_are_read_once_and_shared_by_every_slot():
    metric = _CountingMetric(random_euclidean_metric(12, rng=4))
    ledger = BidHistoryBuffer(metric, 3)
    for point, slot in [(5, 0), (5, 1), (5, 2), (7, 1), (5, 0), (7, 2)]:
        ledger.append(point, 0.5, 0.25, slot=slot)
    assert metric.rows == Counter({5: 1, 7: 1})
    assert np.array_equal(ledger.row(7), metric.pairwise_matrix()[7])
    assert not ledger.row(7).flags.writeable
    ledger.row(3)
    assert metric.rows == Counter({5: 1, 7: 1, 3: 1})


# ---------------------------------------------------------------------------
# PD-OMFLP restores and memory
# ---------------------------------------------------------------------------
class _CountingMetric(MetricSpace):
    """A symmetric matrix metric counting ``distances_from`` reads per point.

    ``distance`` and ``distances_to`` (the state's connection pricing and
    facility trackers) read the matrix without counting.
    """

    def __init__(self, inner: MetricSpace) -> None:
        self._matrix = np.array(inner.pairwise_matrix(), dtype=np.float64)
        self.rows: Counter = Counter()

    @property
    def num_points(self) -> int:
        return self._matrix.shape[0]

    def distances_from(self, point: int) -> np.ndarray:
        self.rows[point] += 1
        return self._matrix[point]

    def distances_to(self, point: int) -> np.ndarray:
        return self._matrix[point]

    def distance(self, a: int, b: int) -> float:
        return float(self._matrix[a, b])

    def pairwise_matrix(self) -> np.ndarray:
        return self._matrix


def _pd_session(metric: MetricSpace, num_commodities: int, num_requests: int, seed: int):
    cost = PowerCost(num_commodities, 1.0, scale=0.5)
    session = OnlineSession(
        PDOMFLPAlgorithm(), metric, cost, commodities=CommodityUniverse(num_commodities)
    )
    rng = ensure_rng(seed)
    for _ in range(num_requests):
        point = int(rng.integers(0, metric.num_points))
        size = int(rng.integers(1, num_commodities + 1))
        demand = rng.choice(num_commodities, size=size, replace=False)
        session.submit(point, [int(e) for e in demand])
    return session, cost


@pytest.mark.parametrize("seed", SEEDS)
def test_pd_restore_reads_each_distinct_point_once(seed):
    metric = _CountingMetric(random_euclidean_metric(40, rng=seed))
    session, cost = _pd_session(metric, 4, 120, seed)
    data = json.loads(session.snapshot().to_json())
    state = data["algorithm_state"]
    histories = [history for _, history in state["small_buffers"]] + [state["large_buffer"]]
    entries = sum(len(history["points"]) for history in histories)
    distinct = {point for history in histories for point in history["points"]}
    assert entries > 2 * len(distinct)

    metric.rows.clear()
    restored = OnlineSession.restore(
        data,
        algorithm=PDOMFLPAlgorithm(),
        metric=metric,
        cost=cost,
        commodities=CommodityUniverse(4),
    )
    assert set(metric.rows) == distinct
    assert max(metric.rows.values()) == 1

    # The restored run continues as the uninterrupted one.
    rng = ensure_rng(seed + 100)
    for _ in range(40):
        point = int(rng.integers(0, metric.num_points))
        demand = [int(e) for e in rng.choice(4, size=2, replace=False)]
        assert restored.submit(point, demand) == session.submit(point, demand)
    assert restored.algorithm.state_dict() == session.algorithm.state_dict()


def test_pd_bid_state_stays_within_six_mib_at_1024_points():
    """Every array the finished run's algorithm holds alone, by tracemalloc."""
    instance = clustered_workload(
        num_requests=1000, num_commodities=8, num_clusters=8, points_per_cluster=128, rng=0
    ).instance
    assert instance.num_points == 1024
    tracemalloc.start()
    try:
        algorithm = PDOMFLPAlgorithm()
        run_online(algorithm, instance)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del algorithm
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 6 * 2**20, f"{held / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# Snapshots the per-commodity buffers wrote
# ---------------------------------------------------------------------------
STREAM_SPEC = {
    "algorithm": "pd-omflp",
    "scenario": {
        "kind": "clustered",
        "num_commodities": 8,
        "num_clusters": 8,
        "points_per_cluster": 32,
        "num_requests": 1000,
    },
    "seed": 0,
}

#: sha256 of ``json.dumps(state_dict())`` after 300 steps of STREAM_SPEC, as
#: written by one ``BidHistoryBuffer`` per commodity and one for the large
#: configuration.
STATE_300_SHA256 = "4267ed06b17b644a3d086e403d7c4d5ee9849a81b5432a56f5863089fe03c41b"

#: A snapshot the per-commodity buffers wrote after 24 of 80 requests.
GOLDEN_SNAPSHOT = Path(__file__).resolve().parent / "golden" / "pd_omflp_snapshot.json"


def test_state_dict_bytes_are_unchanged():
    session = ScenarioSession(STREAM_SPEC)
    for _ in range(300):
        session.step()
    text = json.dumps(session.session.algorithm.state_dict(), allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == STATE_300_SHA256


def test_snapshot_of_the_per_commodity_buffers_resumes_equal():
    data = json.loads(GOLDEN_SNAPSHOT.read_text())
    resumed = ScenarioSession.restore(data)
    uninterrupted = ScenarioSession(data["spec"])
    for _ in range(data["num_requests"]):
        uninterrupted.step()
    written = uninterrupted.snapshot().to_dict()
    for snapshot in (written, data):
        snapshot.pop("runtime_seconds")
    assert written == data
    assert resumed.advance() == uninterrupted.advance()
    assert resumed.session.total_cost == uninterrupted.session.total_cost == 17.728107407122888
    assert resumed.session.algorithm.state_dict() == uninterrupted.session.algorithm.state_dict()


# ---------------------------------------------------------------------------
# Damaged bid entries
# ---------------------------------------------------------------------------
def _put(*path_and_value):
    """A damage setting the algorithm state entry at ``path`` to ``value``."""
    *path, value = path_and_value

    def damage(state):
        target = state
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return damage


def _add_history(commodity, history=None):
    def damage(state):
        entry = history if history is not None else state["small_buffers"][0][1]
        state["small_buffers"].append([commodity, entry])

    return damage


EMPTY = {"points": [], "duals": [], "nearest": []}

#: (damage, message) against PD-OMFLP's state after 6 grid requests with
#: |S| = 4 on 25 points: small_buffers lists commodities [0, 1, 3, 2], and
#: the large configuration's history is slot 4.
DAMAGED_BIDS = [
    pytest.param(_add_history(99), r"small_buffers\[4\] commodity must lie in \[0, 4\), got 99",
                 id="commodity-out-of-range"),
    pytest.param(_add_history(-1), r"small_buffers\[4\] commodity must lie in \[0, 4\), got -1",
                 id="commodity-negative"),
    pytest.param(_add_history(0, EMPTY), r"small_buffers repeats commodity 0",
                 id="repeated-commodity-empty"),
    pytest.param(_add_history(0), r"small_buffers repeats commodity 0", id="repeated-commodity"),
    pytest.param(_put("small_buffers", 0, 0, 0.0),
                 r"small_buffers\[0\] commodity must be a JSON integer, got 0\.0",
                 id="commodity-float"),
    pytest.param(_put("small_buffers", 0, 1, EMPTY),
                 r"small_buffers\[0\] holds no bid entries for commodity 0", id="empty-history"),
    pytest.param(_put("small_buffers", 0, [1]), r"small_buffers\[0\] must have 2 items",
                 id="not-a-pair"),
    pytest.param(_put("small_buffers", 0, 1, "points", 0, 1.5),
                 r"bid slot 0 points\[0\] must be a JSON integer, got 1\.5", id="point-float"),
    pytest.param(_put("small_buffers", 0, 1, "points", 0, True),
                 r"bid slot 0 points\[0\] must be a JSON integer, got True", id="point-bool"),
    pytest.param(_put("small_buffers", 0, 1, "points", 0, 25),
                 r"bid slot 0 points\[0\] must lie in \[0, 25\), got 25", id="point-out-of-range"),
    pytest.param(_put("small_buffers", 0, 1, "points", 0, -1),
                 r"bid slot 0 points\[0\] must lie in \[0, 25\), got -1", id="point-negative"),
    pytest.param(_put("small_buffers", 0, 1, "duals", 0, "x"),
                 r"bid slot 0 duals\[0\] must be a JSON number, got 'x'", id="dual-string"),
    pytest.param(_put("small_buffers", 0, 1, "duals", 0, False),
                 r"bid slot 0 duals\[0\] must be a JSON number, got False", id="dual-bool"),
    pytest.param(_put("small_buffers", 0, 1, "nearest", 0, "far"),
                 r"bid slot 0 nearest\[0\] must be a JSON number, got 'far'", id="nearest-string"),
    pytest.param(_put("small_buffers", 0, 1, "points", 7),
                 r"bid slot 0 points must be a JSON list, got int", id="points-not-a-list"),
    pytest.param(lambda state: state["small_buffers"][0][1].pop("duals"),
                 r"bid slot 0 has no 'duals' field", id="no-duals"),
    pytest.param(_put("large_buffer", "points", 0, 2.0),
                 r"bid slot 4 points\[0\] must be a JSON integer, got 2\.0",
                 id="large-point-float"),
    pytest.param(lambda state: state.pop("large_buffer"),
                 r"PD-OMFLP state has no 'large_buffer' field", id="no-large-buffer"),
]


def _grid_snapshot():
    session, cost = _pd_session(GridMetric.full_grid(5, 5), 4, 6, 0)
    return json.loads(session.snapshot().to_json()), session, cost


def _restore(data, cost):
    return OnlineSession.restore(
        data,
        algorithm=PDOMFLPAlgorithm(),
        metric=GridMetric.full_grid(5, 5),
        cost=cost,
        commodities=CommodityUniverse(4),
    )


@pytest.mark.parametrize("damage,message", DAMAGED_BIDS)
def test_restore_rejects_damaged_bid_entries(damage, message):
    data, _, cost = _grid_snapshot()
    assert [e for e, _ in data["algorithm_state"]["small_buffers"]] == [0, 1, 3, 2]
    damage(data["algorithm_state"])
    with pytest.raises(SnapshotError, match=message):
        _restore(data, cost)


#: (damage, message) against the same state's duals: 17 entries
#: ``[request, commodity, value]`` over |S| = 4, the first two
#: ``[0, 0, 1/3]`` and ``[0, 1, 1/3]``.
DAMAGED_DUALS = [
    pytest.param(_put("duals", "values", 0, 0, 0.7),
                 r"^duals values\[0\] request must be a non-negative JSON integer, got 0\.7$",
                 id="request-float"),
    pytest.param(_put("duals", "values", 0, 0, -1),
                 r"^duals values\[0\] request must be a non-negative JSON integer, got -1$",
                 id="request-negative"),
    pytest.param(_put("duals", "values", 0, 1, True),
                 r"^duals values\[0\] commodity must be a JSON integer in \[0, 4\), got True$",
                 id="commodity-bool"),
    pytest.param(_put("duals", "values", 0, 1, 4),
                 r"^duals values\[0\] commodity must be a JSON integer in \[0, 4\), got 4$",
                 id="commodity-out-of-range"),
    pytest.param(_put("duals", "values", 0, 2, "1.0"),
                 r"^duals values\[0\] value must be a JSON number, got '1\.0'$",
                 id="value-string"),
    pytest.param(_put("duals", "values", 0, 2, -0.5),
                 r"^duals values\[0\] value must be non-negative, got -0\.5$",
                 id="value-negative"),
    pytest.param(_put("duals", "values", 0, 2, "nan"),
                 r"^duals values\[0\] value must be non-negative, got nan$", id="value-nan"),
    pytest.param(_put("duals", "values", 1, [0, 0, 0.25]),
                 r"^duals values repeats request 0 commodity 0$", id="repeated-pair"),
    pytest.param(_put("duals", "values", 1, [0, 0, 1 / 3]),
                 r"^duals values repeats request 0 commodity 0$", id="repeated-pair-same-value"),
    pytest.param(_put("duals", "values", 0, [0, 0]),
                 r"^duals values\[0\] must have 3 items, got 2$", id="not-a-triple"),
    pytest.param(_put("duals", "values", {}),
                 r"^duals values must be a JSON list, got dict$", id="values-not-a-list"),
    pytest.param(_put("duals", "num_commodities", 9),
                 r"^duals num_commodities must be 4, got 9$", id="num-commodities-mismatch"),
    pytest.param(_put("duals", "num_commodities", 4.0),
                 r"^duals num_commodities must be a JSON integer, got 4\.0$",
                 id="num-commodities-float"),
    pytest.param(lambda state: state["duals"].pop("values"),
                 r"^duals has no 'values' field$", id="no-values"),
    pytest.param(_put("duals", []), r"^duals must be a JSON object, got list$",
                 id="duals-not-an-object"),
    pytest.param(lambda state: state.pop("duals"),
                 r"^PD-OMFLP state has no 'duals' field$", id="no-duals"),
]


@pytest.mark.parametrize("damage,message", DAMAGED_DUALS)
def test_restore_rejects_damaged_duals_before_the_algorithm_changes(damage, message):
    """Damaged duals raise a ``SnapshotError`` naming them instead of
    restoring coerced, deduplicated or foreign values, and leave the run
    freshly prepared: the undamaged state still loads onto it."""
    data, session, cost = _grid_snapshot()
    state = data["algorithm_state"]
    damaged = json.loads(json.dumps(state))
    damage(damaged)
    instance = Instance(GridMetric.full_grid(5, 5), cost, RequestSequence.from_tuples([]))
    algorithm = PDOMFLPAlgorithm()
    algorithm.prepare(instance, OnlineState(instance), None)
    with pytest.raises(SnapshotError, match=message):
        algorithm.load_state_dict(damaged)
    algorithm.load_state_dict(state)
    assert algorithm.state_dict() == session.algorithm.state_dict()


def test_restore_rejects_a_state_that_is_not_an_object():
    data, _, cost = _grid_snapshot()
    data["algorithm_state"] = []
    with pytest.raises(SnapshotError, match=r"^PD-OMFLP state must be a JSON object, got list$"):
        _restore(data, cost)


def test_the_encoded_infinity_round_trips():
    """A request that joined before any facility covered it bids with an
    ``inf`` nearest distance, which the state dict spells as a string."""
    ledger = BidHistoryBuffer(GridMetric.full_grid(5, 5))
    state = {"points": [3, 4], "duals": [0.5, 1], "nearest": ["inf", 0.25]}
    ledger.load_state_dict(state)
    assert ledger.state_dict() == {"points": [3, 4], "duals": [0.5, 1.0], "nearest": ["inf", 0.25]}
    assert ledger.base()[3] == 0.5


def test_an_undamaged_snapshot_restores():
    data, session, cost = _grid_snapshot()
    assert _restore(data, cost).algorithm.state_dict() == session.algorithm.state_dict()


def test_fotakis_restore_rejects_a_damaged_history():
    metric = random_euclidean_metric(10, rng=1)
    cost = PowerCost(1, 1.0)
    session = OnlineSession(FotakisOFLAlgorithm(), metric, cost, commodities=CommodityUniverse(1))
    for point in (3, 7, 3, 1):
        session.submit(point, [0])
    data = json.loads(session.snapshot().to_json())
    data["algorithm_state"]["helpers"][0][1]["history"]["points"][1] = 2.5
    with pytest.raises(SnapshotError, match=r"bid slot 0 points\[1\] must be a JSON integer"):
        OnlineSession.restore(
            data,
            algorithm=FotakisOFLAlgorithm(),
            metric=metric,
            cost=cost,
            commodities=CommodityUniverse(1),
        )


def test_a_refused_load_leaves_the_slot_empty():
    ledger = BidHistoryBuffer(random_euclidean_metric(8, rng=0), 2)
    state: Dict[str, list] = {"points": [0, 1, 9], "duals": [0.5, 0.25, 0.1], "nearest": [1, 1, 1]}
    with pytest.raises(SnapshotError, match=r"bid slot 1 points\[2\] must lie in \[0, 8\), got 9"):
        ledger.load_state_dict(state, slot=1)
    assert len(ledger) == 0
    ledger.load_state_dict(dict(state, points=[0, 1, 7]), slot=1)
    with pytest.raises(SnapshotError, match="requires an empty slot; slot 1 already holds 3"):
        ledger.load_state_dict(state, slot=1)
