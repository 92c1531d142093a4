"""The streaming offline bound against its seen-set oracle, on tie-prone instances.

:class:`~repro.analysis.competitive.IncrementalOfflineBound` decides an
arrival from one bit of a per-commodity coverage mask.  The oracle,
:class:`oracles.ReferenceOfflineBound`, decides it the way the mask replaced:
a memo of seen points and ``min(distances_between(point, anchors)) <= 2·f_e``.
The instances are built for exact ties: integer coordinates and edge lengths
with duplicate points, singleton costs on a half-integer grid (so ``2·f_e``
often equals a distance exactly), point scales that include 0 (so ``f_e`` is
0) and anchor caps of 1, 2, 3 and 256.  One family is an asymmetric explicit
matrix, where only a column read (``distances_to``) matches the oracle's row
read.  Every returned value and the final ``state_dict()`` must be ``==``,
across a JSON state round-trip at a drawn cut, and with the production bound
also fed in batches through ``update_many``.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
import pytest

from repro.analysis.competitive import IncrementalOfflineBound
from repro.core.requests import Request
from repro.costs.count_based import PowerCost
from repro.costs.general import WeightedConcaveCost
from repro.exceptions import ExperimentError
from repro.metric.euclidean import EuclideanMetric
from repro.metric.graph import GraphMetric
from repro.metric.grid import GridMetric
from repro.metric.line import LineMetric
from repro.metric.matrix import ExplicitMetric
from repro.metric.tree import TreeMetric

from oracles import ReferenceOfflineBound

METRIC_KINDS = ("line", "grid", "euclidean", "tree", "graph", "explicit")
SEEDS_PER_KIND = 50
ANCHOR_CAPS = (1, 2, 3, 256)


def _metric(kind: str, g: np.random.Generator):
    n = int(g.integers(3, 25))
    if kind == "line":
        return LineMetric(g.integers(0, 7, size=n))
    if kind == "grid":
        return GridMetric(g.integers(0, 5, size=(n, 2)))
    if kind == "euclidean":
        return EuclideanMetric(g.integers(0, 5, size=(n, 2)))
    if kind == "tree":
        return TreeMetric.balanced(
            int(g.integers(1, 4)), int(g.integers(1, 4)), edge_length=float(g.integers(1, 3))
        )
    if kind == "graph":
        graph = nx.path_graph(n)
        for _ in range(n):
            u, v = (int(x) for x in g.integers(0, n, size=2))
            if u != v:
                graph.add_edge(u, v)
        for u, v in graph.edges():
            graph[u][v]["weight"] = float(g.integers(1, 4))
        return GraphMetric(graph)
    matrix = g.integers(0, 6, size=(n, n)).astype(np.float64)
    np.fill_diagonal(matrix, 0.0)
    return ExplicitMetric(matrix)


def _cost(num_points: int, num_commodities: int, g: np.random.Generator):
    scales = g.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=num_points)
    if g.random() < 0.5:
        scales = np.maximum(scales, 0.5)  # every singleton cost positive
    if g.random() < 0.5:
        return PowerCost(
            num_commodities,
            float(g.choice([0.0, 1.0, 2.0])),
            scale=float(g.choice([0.5, 1.0, 1.5])),
            point_scales=scales,
        )
    weights = g.choice([1.0, 4.0, 9.0], size=num_commodities)
    return WeightedConcaveCost(weights, point_scales=scales)


def _requests(num_points: int, num_commodities: int, g: np.random.Generator):
    requests = []
    for index in range(int(g.integers(20, 90))):
        size = int(g.integers(1, num_commodities + 1))
        commodities = g.choice(num_commodities, size=size, replace=False)
        requests.append(Request(index, int(g.integers(0, num_points)), frozenset(commodities.tolist())))
    return requests


CASES = [
    pytest.param(kind, seed, id=f"{kind}-s{seed}")
    for kind in METRIC_KINDS
    for seed in range(SEEDS_PER_KIND)
]


@pytest.mark.parametrize("kind,seed", CASES)
def test_coverage_mask_equals_seen_set_oracle(kind, seed):
    g = np.random.default_rng([METRIC_KINDS.index(kind), seed])
    metric = _metric(kind, g)
    num_commodities = int(g.integers(1, 5))
    cost = _cost(metric.num_points, num_commodities, g)
    requests = _requests(metric.num_points, num_commodities, g)
    anchor_cap = ANCHOR_CAPS[seed % len(ANCHOR_CAPS)]
    cut = int(g.integers(0, len(requests) + 1))

    production = IncrementalOfflineBound(metric, cost, anchor_cap=anchor_cap)
    reference = ReferenceOfflineBound(metric, cost, anchor_cap=anchor_cap)
    for served, request in enumerate(requests):
        if served == cut:
            state = json.loads(json.dumps(production.state_dict()))
            assert state == reference.state_dict()
            production = IncrementalOfflineBound(metric, cost)
            production.load_state_dict(state)
            reference = ReferenceOfflineBound(metric, cost)
            reference.load_state_dict(json.loads(json.dumps(state)))
        assert production.update(request) == reference.update(request)
    assert production.state_dict() == reference.state_dict()

    # The batch entry point: random-size runs, the same values at run ends.
    batched = IncrementalOfflineBound(metric, cost, anchor_cap=anchor_cap)
    replay = ReferenceOfflineBound(metric, cost, anchor_cap=anchor_cap)
    start = 0
    while start < len(requests):
        stop = start + int(g.integers(1, 17))
        run = requests[start:stop]
        expected = [replay.update_arrival(r.point, r.commodities) for r in run][-1]
        assert batched.update_many(run) == expected
        start = stop
    assert batched.state_dict() == reference.state_dict()


def test_out_of_range_points_are_rejected():
    """A first anchor is never distance-checked, so the point range is
    checked on entry (a negative point would read the mask from the end)."""
    metric = LineMetric([0.0, 1.0, 2.0])
    bound = IncrementalOfflineBound(metric, PowerCost(1, 1.0))
    for point in (99, -1, 3):
        with pytest.raises(ExperimentError, match=rf"point {point} out of range \[0, 3\)"):
            bound.update_arrival(point, [0])
    with pytest.raises(ExperimentError, match=r"point 99 out of range \[0, 3\)"):
        bound.update(Request(0, 99, frozenset({0})))
    assert bound.state_dict() == IncrementalOfflineBound(metric, PowerCost(1, 1.0)).state_dict()
    assert bound.update_arrival(2, [0]) == 1.0
