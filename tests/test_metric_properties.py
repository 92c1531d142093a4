"""Property-based metric-axiom tests over *all* MetricSpace subclasses.

One parametrized fixture builds a randomly generated space of every concrete
subclass (euclidean, grid, line, tree, graph, matrix, single-point) from a
hypothesis-drawn ``(seed, size)``; every property then holds uniformly:

* the metric axioms (via :meth:`MetricSpace.validate`);
* consistency of every derived query (``distance``, ``distances_between``,
  ``nearest``, ``nearest_distance``, ``diameter``) with ``pairwise_matrix``;
* the :meth:`MetricSpace.distances_to` exactness contract the acceleration
  layer relies on: ``distances_to(p)[q]`` is bit-for-bit equal to
  ``distances_from(q)[p]``;
* the scalar contract of :meth:`MetricSpace.distance`: ``distance(p, q)``
  is bit-for-bit ``distances_from(p)[q]`` on a fresh space (the O(d)
  Euclidean override, the matrix entry, or one row) and again after
  ``pairwise_matrix()`` has run.  Connection costs are sums of these
  scalars, and the equivalence grids cannot catch a wrong one: production
  and the test oracle share ``Assignment.connection_cost``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidMetricError
from repro.metric.euclidean import EuclideanMetric
from repro.metric.factories import (
    random_graph_metric,
    random_tree_metric,
)
from repro.metric.grid import GridMetric
from repro.metric.line import LineMetric
from repro.metric.matrix import ExplicitMetric
from repro.metric.single_point import SinglePointMetric
from repro.utils.rng import ensure_rng


def _build_euclidean(seed: int, size: int, dimension: int = 3):
    rng = ensure_rng(seed)
    return EuclideanMetric(rng.uniform(-2.0, 2.0, size=(size, dimension)))


def _build_grid(seed: int, size: int):
    rng = ensure_rng(seed)
    return GridMetric(rng.integers(-6, 7, size=(size, 2)), spacing=0.5)


def _build_line(seed: int, size: int):
    rng = ensure_rng(seed)
    return LineMetric(rng.uniform(-10.0, 10.0, size=size))


def _build_tree(seed: int, size: int):
    return random_tree_metric(size, rng=seed)


def _build_graph(seed: int, size: int):
    return random_graph_metric(size, edge_probability=0.3, rng=seed)


def _build_matrix(seed: int, size: int):
    # A valid explicit metric: re-wrap a shortest-path matrix.
    return ExplicitMetric(random_graph_metric(size, rng=seed).pairwise_matrix())


def _build_single_point(seed: int, size: int):
    return SinglePointMetric()


BUILDERS = {
    "euclidean": _build_euclidean,
    "grid": _build_grid,
    "line": _build_line,
    "tree": _build_tree,
    "graph": _build_graph,
    "matrix": _build_matrix,
    "single_point": _build_single_point,
}


@pytest.fixture(params=sorted(BUILDERS))
def metric_builder(request):
    """One concrete MetricSpace subclass builder per parametrization."""
    return BUILDERS[request.param]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 24))
def test_metric_axioms_hold(metric_builder, seed, size):
    metric = metric_builder(seed, size)
    metric.validate(rng=seed)  # non-negativity, identity, symmetry, triangle


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 24))
def test_derived_queries_match_pairwise_matrix(metric_builder, seed, size):
    metric = metric_builder(seed, size)
    matrix = metric.pairwise_matrix()
    n = metric.num_points
    assert matrix.shape == (n, n)
    assert len(metric) == n

    rng = ensure_rng(seed)
    for _ in range(5):
        p = int(rng.integers(0, n))
        q = int(rng.integers(0, n))
        assert metric.distance(p, q) == matrix[p, q]
        row = np.asarray(metric.distances_from(p))
        assert row.shape == (n,)
        np.testing.assert_array_equal(row, matrix[p])

        count = int(rng.integers(1, n + 1))
        targets = [int(t) for t in rng.integers(0, n, size=count)]
        sub = metric.distances_between(p, targets)
        np.testing.assert_array_equal(sub, matrix[p, targets])

        nearest_point, nearest_distance = metric.nearest(p, targets)
        best = int(np.argmin(matrix[p, targets]))
        assert nearest_point == targets[best]
        assert nearest_distance == matrix[p, targets[best]]
        assert metric.nearest_distance(p, targets) == matrix[p, targets].min()

    assert metric.nearest_distance(0, []) == float("inf")
    assert metric.diameter() == matrix.max()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 24))
def test_distances_to_is_exact_transpose(metric_builder, seed, size):
    """The accel-layer contract: distances_to(p)[q] == distances_from(q)[p],
    bit for bit, for every implementation — both before and after
    pairwise_matrix() has run."""
    metric = metric_builder(seed, size)
    n = metric.num_points
    for p in range(n):
        column = metric.distances_to(p)
        for q in range(n):
            assert column[q] == metric.distances_from(q)[p]
    metric.pairwise_matrix()  # building the matrix must not change a column
    for p in range(n):
        column = metric.distances_to(p)
        for q in range(n):
            assert column[q] == metric.distances_from(q)[p]


def _assert_scalar_distance_matches_row(metric) -> None:
    """``distance(p, q) == distances_from(p)[q]`` bit for bit, for all p, q,
    on the space as given and again after its pairwise_matrix() has run."""
    n = metric.num_points
    for _ in ("fresh", "after pairwise_matrix()"):
        for p in range(n):
            row = metric.distances_from(p)
            for q in range(n):
                assert metric.distance(p, q) == row[q]
        metric.pairwise_matrix()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 24))
def test_scalar_distance_matches_row(metric_builder, seed, size):
    _assert_scalar_distance_matches_row(metric_builder(seed, size))


@pytest.mark.parametrize("dimension", [1, 2, 3, 8, 17])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 24))
def test_euclidean_scalar_distance_matches_row_in_any_dimension(dimension, seed, size):
    _assert_scalar_distance_matches_row(_build_euclidean(seed, size, dimension))


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 24))
def test_empty_and_out_of_range_queries_raise(metric_builder, seed, size):
    metric = metric_builder(seed, size)
    with pytest.raises(InvalidMetricError):
        metric.nearest(0, [])
    with pytest.raises(InvalidMetricError):
        metric.distance(0, metric.num_points)
    with pytest.raises(InvalidMetricError):
        metric.distances_between(0, [metric.num_points])
    with pytest.raises(InvalidMetricError):
        metric.distances_to(metric.num_points)
