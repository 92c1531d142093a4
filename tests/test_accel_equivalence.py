"""Bit-identical equivalence of the production hot path and the reference scans.

The acceleration layer (:mod:`repro.accel`) claims to be an *exact* drop-in:
for every algorithm, metric space, workload and seed, production must produce
byte-for-byte the same run as the reference scans it replaces, kept as a test
oracle in ``tests/oracles.py`` — same total/opening/connection cost, same
facility-opening sequence (ids, points, configurations, costs), and the same
assignment trace (which facility serves which commodity of every request,
with the same per-request connection cost).

This harness pins that claim over a grid of scenarios and 5 seeds each, so
any future change that breaks exactness fails loudly by name.  Equality is
asserted with ``==`` on floats throughout — "close" is not good enough here;
the accel layer's whole contract is bitwise equality.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.accel.history import BidHistoryBuffer
from repro.algorithms.base import OnlineAlgorithm, OnlineResult, run_online
from repro.algorithms.online.fotakis_ofl import FotakisOFLAlgorithm
from repro.algorithms.online.meyerson_ofl import MeyersonOFLAlgorithm, SingleCommodityMeyerson
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import PerCommodityAlgorithm
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.core.commodities import CommodityUniverse
from repro.core.instance import Instance
from repro.core.state import OnlineState
from repro.core.requests import Request, RequestSequence
from repro.costs.count_based import PowerCost
from repro.costs.general import PerPointScaledCost
from repro.exceptions import SnapshotError
from repro.metric.factories import (
    random_euclidean_metric,
    random_graph_metric,
    random_line_metric,
    random_tree_metric,
)
from repro.metric.grid import GridMetric
from repro.metric.matrix import ExplicitMetric
from repro.metric.single_point import SinglePointMetric
from repro.utils.rng import ensure_rng
from repro.workloads.clustered import clustered_workload
from repro.workloads.uniform import uniform_workload

from oracles import (
    ReferenceMeyerson,
    ReferencePrimalDual,
    ScanFacilityStore,
    reference_scans,
    run_reference,
)

SEEDS = [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# Scenario grid: (name, num_commodities, instance builder)
# ---------------------------------------------------------------------------
def _random_requests(metric, num_commodities: int, num_requests: int, rng) -> RequestSequence:
    """Uniform random requests over the given metric's points."""
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
        # Non-uniform per-point opening costs exercise multi-class behaviour
        # (uniform PowerCost collapses to a single power-of-two class).
        scales = rng.uniform(0.5, 8.0, size=metric.num_points)
        cost = PerPointScaledCost(cost, scales)
    requests = _random_requests(metric, num_commodities, 25, rng)
    return Instance(
        metric, cost, requests, commodities=CommodityUniverse(num_commodities)
    )


def _euclidean_single(seed: int) -> Instance:
    return _instance_on(
        random_euclidean_metric(40, rng=seed), 1, seed, scaled_costs=True
    )


def _line_single(seed: int) -> Instance:
    return _instance_on(random_line_metric(32, rng=seed), 1, seed, scaled_costs=True)


def _clustered_multi(seed: int) -> Instance:
    return clustered_workload(
        num_requests=25, num_commodities=6, num_clusters=3, rng=seed
    ).instance


def _grid_multi(seed: int) -> Instance:
    return _instance_on(GridMetric.full_grid(6, 6), 5, seed, scaled_costs=True)


def _tree_multi(seed: int) -> Instance:
    return _instance_on(random_tree_metric(30, rng=seed), 4, seed, scaled_costs=True)


def _graph_matrix_multi(seed: int) -> Instance:
    # Shortest-path matrix rewrapped as an explicit matrix metric: exercises
    # the column-slice path of distances_to on a (potentially) only
    # approximately symmetric stored matrix.
    graph = random_graph_metric(28, rng=seed)
    return _instance_on(ExplicitMetric(graph.pairwise_matrix()), 4, seed, scaled_costs=True)


def _single_point_multi(seed: int) -> Instance:
    # The Theorem-2 degenerate space: all distances vanish, only facility
    # configuration decisions matter.
    return _instance_on(SinglePointMetric(), 6, seed)


def _uniform_euclidean_multi(seed: int) -> Instance:
    return uniform_workload(
        num_requests=25, num_commodities=5, num_points=36, rng=seed
    ).instance


SCENARIOS: List[Tuple[str, int, Callable[[int], Instance]]] = [
    ("euclidean-single", 1, _euclidean_single),
    ("line-single", 1, _line_single),
    ("clustered-euclidean", 6, _clustered_multi),
    ("grid-l1", 5, _grid_multi),
    ("tree", 4, _tree_multi),
    ("graph-matrix", 4, _graph_matrix_multi),
    ("single-point", 6, _single_point_multi),
    ("uniform-euclidean", 5, _uniform_euclidean_multi),
]

#: name (as in oracles.REFERENCE_ALGORITHMS) -> (production factory,
#: single_commodity_only)
ALGORITHMS: Dict[str, Tuple[Callable[[], OnlineAlgorithm], bool]] = {
    "meyerson-ofl": (MeyersonOFLAlgorithm, True),
    "fotakis-ofl": (FotakisOFLAlgorithm, True),
    "pd-omflp": (PDOMFLPAlgorithm, False),
    "rand-omflp": (RandOMFLPAlgorithm, False),
    "per-commodity-fotakis": (lambda: PerCommodityAlgorithm("fotakis"), False),
    "per-commodity-meyerson": (lambda: PerCommodityAlgorithm("meyerson"), False),
}

CASES = [
    pytest.param(algorithm_name, scenario_name, seed, id=f"{algorithm_name}-{scenario_name}-s{seed}")
    for algorithm_name, (_, single_only) in ALGORITHMS.items()
    for scenario_name, num_commodities, _ in SCENARIOS
    if not (single_only and num_commodities != 1)
    for seed in SEEDS
]


# ---------------------------------------------------------------------------
# Fingerprinting one run
# ---------------------------------------------------------------------------
def _facility_sequence(result: OnlineResult) -> List[Tuple[int, int, Tuple[int, ...], float]]:
    """(id, point, configuration, opening cost) in opening order."""
    return [
        (f.id, f.point, tuple(sorted(f.configuration)), f.opening_cost)
        for f in result.solution.facilities
    ]


def _assignment_trace(result: OnlineResult) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """(request index, sorted (commodity, facility id) pairs) per request."""
    return [
        (a.request_index, tuple(sorted(a.facility_of_commodity.items())))
        for a in result.solution.assignments
    ]


def _per_request_connection_costs(result: OnlineResult) -> List[float]:
    return [
        event.connection_cost
        for event in result.trace.events
        if type(event).__name__ == "RequestAssignedEvent"
    ]


def _instance(scenario_name: str, seed: int) -> Instance:
    builder = next(b for name, _, b in SCENARIOS if name == scenario_name)
    return builder(seed)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm_name,scenario_name,seed", CASES)
def test_fast_path_is_bit_identical_to_reference(algorithm_name, scenario_name, seed):
    reference = run_reference(
        algorithm_name, _instance(scenario_name, seed), rng=seed, trace=True
    )
    factory, _ = ALGORITHMS[algorithm_name]
    fast = run_online(factory(), _instance(scenario_name, seed), rng=seed, trace=True)

    # Exact cost equality — bitwise, not approximate.
    assert fast.total_cost == reference.total_cost
    assert fast.opening_cost == reference.opening_cost
    assert fast.connection_cost == reference.connection_cost

    # Identical facility-opening sequence.
    assert _facility_sequence(fast) == _facility_sequence(reference)

    # Identical assignment trace (commodity -> facility id per request) and
    # identical per-request connection costs.
    assert _assignment_trace(fast) == _assignment_trace(reference)
    assert _per_request_connection_costs(fast) == _per_request_connection_costs(reference)


def test_reference_scans_reach_production_constructors():
    """The grid only means something while the oracle really runs:
    reference_scans() must reach the facility store and every
    single-commodity helper production builds."""
    single, multi = _euclidean_single(0), _clustered_multi(0)
    runs = [
        (FotakisOFLAlgorithm(), single, ReferencePrimalDual),
        (MeyersonOFLAlgorithm(), single, ReferenceMeyerson),
        (PerCommodityAlgorithm("fotakis"), multi, ReferencePrimalDual),
        (PerCommodityAlgorithm("meyerson"), multi, ReferenceMeyerson),
    ]
    with reference_scans():
        assert type(OnlineState(multi).store) is ScanFacilityStore
        for algorithm, instance, _ in runs:
            run_online(algorithm, instance, rng=0)
    for algorithm, _, helper_type in runs:
        if isinstance(algorithm, PerCommodityAlgorithm):
            helpers = list(algorithm._helpers.values())
        else:
            helpers = [algorithm._helper]
        assert helpers and all(type(h) is helper_type for h in helpers)
    assert type(OnlineState(multi).store) is not ScanFacilityStore


def test_streaming_session_matches_batch_fast_path():
    """The accel caches thread through OnlineSession identically to batch."""
    from repro.api.session import OnlineSession

    instance = _clustered_multi(7)
    batch = run_online(PDOMFLPAlgorithm(), instance)
    session = OnlineSession(
        PDOMFLPAlgorithm(),
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        instance=instance,
    )
    for request in instance.requests:
        session.submit(request.point, request.commodities)
    record = session.finalize()
    assert record.total_cost == batch.total_cost
    assert _facility_sequence(record.source) == _facility_sequence(batch)


@pytest.mark.parametrize("seed", SEEDS)
def test_meyerson_budget_override_equivalence(seed):
    """SingleCommodityMeyerson.decide with an explicit budget (the RAND-OMFLP
    entry point) is bit-identical between the production and reference helper."""
    rng = ensure_rng(seed)
    metric = random_euclidean_metric(30, rng=seed)
    costs = rng.uniform(0.25, 4.0, size=metric.num_points)
    reference = ReferenceMeyerson(metric, costs)
    fast = SingleCommodityMeyerson(metric, costs)
    rng_ref, rng_fast = ensure_rng(seed + 1), ensure_rng(seed + 1)
    for _ in range(40):
        point = int(rng.integers(0, metric.num_points))
        budget = float(rng.uniform(0.0, 2.0)) if rng.uniform() < 0.5 else None
        out_ref = reference.decide(point, rng_ref, budget=budget)
        out_fast = fast.decide(point, rng_fast, budget=budget)
        assert out_fast == out_ref
    assert fast.facility_points == reference.facility_points


# ---------------------------------------------------------------------------
# BidHistoryBuffer: running bid sums against the full recompute
# ---------------------------------------------------------------------------
#: (num_points, share of steps that open a facility).  n = 1 is where numpy
#: sums the history pairwise.  An opening zeroes every bid there (all
#: distances vanish), so the case without openings is the one whose 300
#: nonzero bids would expose a running sum standing in for that.
BUFFER_CASES = [(1, 0.0), (1, 0.2), (2, 0.2), (256, 0.2)]


@pytest.mark.parametrize("num_points,open_share", BUFFER_CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bid_history_base_matches_full_recompute(num_points, open_share, seed):
    """``base()`` equals the reference expression bit for bit under random
    interleavings of append / update_nearest / base / snapshot -> reload.

    ``eager`` is checked after every step.  ``lazy`` is checked only on the
    random ``base`` steps, so it also appends while its sum is stale.
    """
    rng = ensure_rng(seed)
    metric = (
        SinglePointMetric() if num_points == 1 else random_euclidean_metric(num_points, rng=seed)
    )
    eager, lazy = BidHistoryBuffer(metric), BidHistoryBuffer(metric)
    rows: List[np.ndarray] = []
    duals: List[float] = []
    nearest: List[float] = []
    points: List[int] = []

    def expected() -> np.ndarray:
        if not rows:
            return np.zeros(num_points)
        bids = np.array([min(dual, near) for dual, near in zip(duals, nearest)])
        return np.maximum(bids[:, None] - np.vstack(rows), 0.0).sum(axis=0)

    while len(rows) < 300:
        step = rng.uniform()
        if step < 0.6:
            point = int(rng.integers(0, num_points))
            dual = float(rng.uniform(0.0, 0.1))
            near = float("inf") if rng.uniform() < 0.3 else float(rng.uniform(0.0, 0.1))
            row = metric.distances_from(point)
            eager.append(point, dual, near, row=row)
            lazy.append(point, dual, near)
            points.append(point)
            rows.append(row.copy())
            duals.append(dual)
            nearest.append(near)
        elif step < 0.6 + open_share:
            opened = metric.distances_from(int(rng.integers(0, num_points)))
            nearest = [min(near, float(opened[p])) for p, near in zip(points, nearest)]
            eager.update_nearest(opened)
            lazy.update_nearest(opened)
        elif step < 0.95:
            assert np.array_equal(lazy.base(), expected())
        else:
            state = json.loads(json.dumps(eager.state_dict()))
            assert lazy.state_dict() == state
            eager, lazy = BidHistoryBuffer(metric), BidHistoryBuffer(metric)
            eager.load_state_dict(state)
            lazy.load_state_dict(state)
        assert np.array_equal(eager.base(), expected())
    assert np.array_equal(lazy.base(), expected())


def test_bid_history_base_returns_independent_arrays():
    metric = random_euclidean_metric(16, rng=0)
    buffer = BidHistoryBuffer(metric)
    for point in range(6):
        buffer.append(point, 0.4, float("inf"))
    first = buffer.base()
    kept = first.copy()
    buffer.append(7, 0.3, 0.5)
    buffer.update_nearest(metric.distances_from(2))
    assert np.array_equal(first, kept)

    current = buffer.base()
    returned = buffer.base()
    returned += 1.0
    assert np.array_equal(buffer.base(), current)


def test_bid_history_rejects_mismatched_snapshot():
    buffer = BidHistoryBuffer(random_euclidean_metric(8, rng=0))
    state = {"points": [0, 1, 2], "duals": [0.5, 0.25], "nearest": ["inf"]}
    with pytest.raises(SnapshotError, match="3 points, 2 duals, 1 nearest"):
        buffer.load_state_dict(state)
    assert len(buffer) == 0
