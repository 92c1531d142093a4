"""Unit and property-based tests for the metric-space substrate."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.core.serialization import instance_to_dict
from repro.costs.count_based import PowerCost
from repro.exceptions import InvalidMetricError
from repro.metric import (
    EuclideanMetric,
    ExplicitMetric,
    GraphMetric,
    GridMetric,
    LineMetric,
    SinglePointMetric,
    TreeMetric,
    random_euclidean_metric,
    random_graph_metric,
    random_line_metric,
    random_tree_metric,
    uniform_line_metric,
)
from repro.metric.factories import random_grid_metric


class TestLineMetric:
    def test_distances(self):
        metric = LineMetric([0.0, 1.0, 3.0])
        assert metric.distance(0, 2) == 3.0
        assert metric.distance(2, 1) == 2.0
        assert metric.distance(1, 1) == 0.0

    def test_distances_from_row(self):
        metric = LineMetric([0.0, 1.0, 3.0])
        np.testing.assert_allclose(metric.distances_from(1), [1.0, 0.0, 2.0])

    def test_leftmost_rightmost(self):
        metric = LineMetric([2.0, -1.0, 5.0])
        assert metric.leftmost() == 1
        assert metric.rightmost() == 2

    def test_duplicates_allowed(self):
        metric = LineMetric([1.0, 1.0])
        assert metric.distance(0, 1) == 0.0

    def test_axioms(self):
        random_line_metric(20, rng=0).validate()

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidMetricError):
            LineMetric([])
        with pytest.raises(InvalidMetricError):
            LineMetric([0.0, float("nan")])

    def test_uniform_line_spacing(self):
        metric = uniform_line_metric(5, length=4.0)
        assert metric.distance(0, 4) == pytest.approx(4.0)
        assert metric.distance(0, 1) == pytest.approx(1.0)


class TestEuclideanMetric:
    def test_distances(self):
        metric = EuclideanMetric([[0.0, 0.0], [3.0, 4.0]])
        assert metric.distance(0, 1) == pytest.approx(5.0)

    def test_one_dimensional_input(self):
        metric = EuclideanMetric([0.0, 2.0, 5.0])
        assert metric.dimension == 1
        assert metric.distance(0, 2) == pytest.approx(5.0)

    def test_axioms(self):
        random_euclidean_metric(25, rng=1).validate()

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMetricError):
            EuclideanMetric([[0.0, float("inf")]])


class TestGridMetric:
    def test_l1_distance(self):
        metric = GridMetric([[0, 0], [2, 3]], spacing=1.0)
        assert metric.distance(0, 1) == 5.0

    def test_spacing(self):
        metric = GridMetric([[0, 0], [1, 1]], spacing=0.5)
        assert metric.distance(0, 1) == 1.0

    def test_full_grid_and_point_at(self):
        metric = GridMetric.full_grid(3, 2)
        assert metric.num_points == 6
        index = metric.point_at((2, 1))
        assert metric.distance(metric.point_at((0, 0)), index) == 3.0

    def test_point_at_missing(self):
        metric = GridMetric([[0, 0]])
        with pytest.raises(InvalidMetricError):
            metric.point_at((5, 5))

    def test_axioms(self):
        random_grid_metric(20, width=10, height=10, rng=2).validate()

    def test_invalid_spacing(self):
        with pytest.raises(InvalidMetricError):
            GridMetric([[0, 0]], spacing=0.0)


class TestGraphMetric:
    def test_shortest_path_distances(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=1.0)
        graph.add_edge("b", "c", weight=2.0)
        graph.add_edge("a", "c", weight=10.0)
        metric = GraphMetric(graph)
        a, c = metric.point_of_node("a"), metric.point_of_node("c")
        assert metric.distance(a, c) == pytest.approx(3.0)

    def test_default_weight_is_one(self):
        graph = nx.path_graph(4)
        metric = GraphMetric(graph)
        assert metric.distance(0, 3) == pytest.approx(3.0)

    def test_disconnected_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        with pytest.raises(InvalidMetricError):
            GraphMetric(graph)

    def test_negative_weight_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=-1.0)
        with pytest.raises(InvalidMetricError):
            GraphMetric(graph)

    def test_unknown_node(self):
        metric = GraphMetric(nx.path_graph(3))
        with pytest.raises(InvalidMetricError):
            metric.point_of_node("nope")

    def test_axioms(self):
        random_graph_metric(15, rng=3).validate()


class TestTreeMetric:
    def test_requires_tree(self):
        with pytest.raises(InvalidMetricError):
            TreeMetric(nx.cycle_graph(4))

    def test_balanced_tree_distances(self):
        metric = TreeMetric.balanced(2, 2, edge_length=1.0)
        # Root to any leaf is depth 2.
        leaf = metric.num_points - 1
        assert metric.distance(0, leaf) == pytest.approx(2.0)

    def test_level_decay(self):
        metric = TreeMetric.balanced(2, 2, edge_length=1.0, level_decay=0.5)
        leaf = metric.num_points - 1
        assert metric.distance(0, leaf) == pytest.approx(1.5)

    def test_axioms(self):
        random_tree_metric(20, rng=4).validate()


class TestExplicitAndSinglePoint:
    def test_explicit_metric_round_trip(self, square_metric):
        square_metric.validate()
        assert square_metric.distance(0, 3) == 2.0
        assert square_metric.diameter() == 2.0

    def test_explicit_rejects_non_square(self):
        with pytest.raises(InvalidMetricError):
            ExplicitMetric([[0.0, 1.0]])

    def test_explicit_validation_catches_asymmetry(self):
        with pytest.raises(InvalidMetricError):
            ExplicitMetric([[0.0, 1.0], [2.0, 0.0]], validate=True)

    def test_explicit_validation_catches_triangle_violation(self):
        matrix = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        with pytest.raises(InvalidMetricError):
            ExplicitMetric(matrix, validate=True)

    def test_from_points_and_metric(self):
        metric = ExplicitMetric.from_points_and_metric(3, lambda i, j: abs(i - j))
        assert metric.distance(0, 2) == 2.0

    def test_labels_length_checked(self):
        with pytest.raises(InvalidMetricError):
            ExplicitMetric([[0.0]], labels=["a", "b"])

    def test_explicit_matrix_is_read_only_and_its_own(self):
        """No write reaches a matrix-backed space's distances: not one through
        a space sharing its matrix, and not one to the caller's array."""
        graph = random_graph_metric(6, rng=0)
        expected = graph.pairwise_matrix().copy()
        shared = ExplicitMetric(graph.pairwise_matrix())
        for view in (shared.pairwise_matrix(), shared.distances_from(0), graph.distances_from(0)):
            with pytest.raises(ValueError, match="read-only"):
                view[1] = 99.0
        array = expected.copy()
        own = ExplicitMetric(array)
        array[0, 1] = array[1, 0] = 99.0
        for metric in (graph, shared, own):
            assert np.array_equal(metric.pairwise_matrix(), expected)
            assert metric.distance(0, 1) == expected[0, 1]

    def test_single_point(self):
        metric = SinglePointMetric()
        metric.validate()
        assert metric.num_points == 1
        assert metric.distance(0, 0) == 0.0


class TestMetricQueries:
    def test_nearest_and_nearest_distance(self, line_metric):
        point, distance = line_metric.nearest(0, [2, 4])
        assert point == 2
        assert distance == pytest.approx(0.5)
        assert line_metric.nearest_distance(0, []) == float("inf")
        with pytest.raises(InvalidMetricError):
            line_metric.nearest(0, [])

    def test_distances_between_validates_targets(self, line_metric):
        with pytest.raises(InvalidMetricError):
            line_metric.distances_between(0, [99])
        assert line_metric.distances_between(0, []).size == 0

    def test_point_out_of_range(self, line_metric):
        with pytest.raises(InvalidMetricError):
            line_metric.distance(99, 0)

    def test_len_and_points(self, line_metric):
        assert len(line_metric) == 5
        assert list(line_metric.points()) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_euclidean_metric(70, rng=0),
        lambda: random_line_metric(70, rng=1),
        lambda: random_grid_metric(70, rng=2),
    ],
    ids=["euclidean", "line", "grid"],
)
def test_coordinate_metrics_keep_no_pairwise_matrix(build):
    """A coordinate metric computes its matrix on request and keeps only its points."""
    metric = build()
    n = metric.num_points
    matrix = metric.pairwise_matrix()
    metric.validate(rng=0)
    metric.diameter()
    instance_to_dict(Instance(metric, PowerCost(2, 1.0), RequestSequence([])))
    held = [
        name
        for name, value in vars(metric).items()
        if isinstance(value, np.ndarray) and value.size >= n * n
    ]
    assert held == []
    again = metric.pairwise_matrix()
    assert again is not matrix and np.array_equal(again, matrix)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), size=st.integers(min_value=2, max_value=30))
def test_random_metric_factories_satisfy_axioms(seed, size):
    """Property: every factory produces a valid metric space."""
    random_line_metric(size, rng=seed).validate()
    random_euclidean_metric(size, rng=seed).validate()
    random_graph_metric(size, rng=seed).validate()
    random_tree_metric(size, rng=seed).validate()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), size=st.integers(min_value=2, max_value=25))
def test_nearest_matches_bruteforce(seed, size):
    """Property: nearest() agrees with an explicit argmin over candidates."""
    metric = random_euclidean_metric(size, rng=seed)
    rng = np.random.default_rng(seed)
    candidates = rng.choice(size, size=min(size, 5), replace=False).tolist()
    query = int(rng.integers(0, size))
    point, distance = metric.nearest(query, candidates)
    brute = min(candidates, key=lambda c: metric.distance(query, c))
    assert distance == pytest.approx(metric.distance(query, brute))
    assert metric.distance(query, point) == pytest.approx(distance)
