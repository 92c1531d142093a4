"""Unit and property-based tests for the facility cost functions."""

import math
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.online.meyerson_ofl import SingleCommodityMeyerson
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.costs import (
    AdversaryCost,
    ConstantCost,
    CostClassIndex,
    CountBasedCost,
    HierarchicalCost,
    LinearCost,
    OrderedLinearCost,
    PerPointScaledCost,
    PowerCost,
    TabulatedCost,
    WeightedConcaveCost,
    check_condition_one,
    check_monotonicity,
    check_subadditivity,
)
from repro.costs.general import random_weighted_concave_cost
from repro.exceptions import InvalidCostFunctionError
from repro.metric.factories import uniform_line_metric
from repro.metric.line import LineMetric


class TestCountBasedCost:
    def test_empty_configuration_is_free(self):
        cost = PowerCost(4, 1.0)
        assert cost.cost(0, ()) == 0.0

    def test_shape_table_used(self):
        cost = LinearCost(3, scale=2.0)
        assert cost.cost(5, {0, 1}) == 4.0
        assert cost.full_cost(0) == 6.0
        assert cost.singleton_cost(0, 2) == 2.0

    def test_point_scales(self):
        cost = LinearCost(2, point_scales=[1.0, 3.0])
        assert cost.cost(0, {0}) == 1.0
        assert cost.cost(1, {0}) == 3.0
        with pytest.raises(InvalidCostFunctionError):
            cost.cost(2, {0})

    def test_costs_over_points_vectorized(self):
        cost = LinearCost(2, point_scales=[1.0, 2.0, 4.0])
        np.testing.assert_allclose(cost.costs_over_points({0, 1}, [0, 1, 2]), [2.0, 4.0, 8.0])
        uniform = LinearCost(2)
        np.testing.assert_allclose(uniform.costs_over_points({0}, [5, 9]), [1.0, 1.0])

    def test_is_uniform_over_points(self):
        assert LinearCost(2).is_uniform_over_points()
        assert LinearCost(2, point_scales=[2.0, 2.0]).is_uniform_over_points()
        assert not LinearCost(2, point_scales=[1.0, 2.0]).is_uniform_over_points()

    def test_invalid_shape_rejected(self):
        with pytest.raises(InvalidCostFunctionError):
            CountBasedCost(2, lambda k: 1.0)  # shape(0) != 0
        with pytest.raises(InvalidCostFunctionError):
            CountBasedCost(2, lambda k: -float(k))

    def test_unknown_commodity_rejected(self):
        cost = PowerCost(3, 1.0)
        with pytest.raises(InvalidCostFunctionError):
            cost.cost(0, {7})


class TestPowerCost:
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_shape_values(self, x):
        cost = PowerCost(16, x)
        assert cost.cost(0, range(4)) == pytest.approx(4 ** (x / 2.0))
        assert cost.full_cost(0) == pytest.approx(16 ** (x / 2.0))

    def test_exponent_bounds(self):
        with pytest.raises(InvalidCostFunctionError):
            PowerCost(4, -0.1)
        with pytest.raises(InvalidCostFunctionError):
            PowerCost(4, 2.1)

    def test_predicted_exponents_match_figure2(self):
        # Exponents coincide at x in {0, 1, 2} (Figure 2).
        for x in (0.0, 1.0, 2.0):
            cost = PowerCost(100, x)
            assert cost.predicted_upper_exponent() == pytest.approx(
                cost.predicted_lower_exponent()
            )
        mid = PowerCost(100, 0.5)
        assert mid.predicted_upper_exponent() > mid.predicted_lower_exponent()

    def test_peak_at_x_equal_one(self):
        exponents = [PowerCost(100, x).predicted_upper_exponent() for x in np.linspace(0, 2, 21)]
        assert max(exponents) == pytest.approx(PowerCost(100, 1.0).predicted_upper_exponent())

    def test_tuned_threshold(self):
        assert PowerCost(16, 1.0).tuned_threshold() == pytest.approx(4.0)
        assert PowerCost(16, 2.0).tuned_threshold() == pytest.approx(16.0)
        assert PowerCost(16, 0.0).tuned_threshold() == pytest.approx(1.0)

    def test_special_cases_match_named_classes(self):
        assert PowerCost(5, 2.0).cost(0, {0, 1, 2}) == pytest.approx(
            LinearCost(5).cost(0, {0, 1, 2})
        )
        assert PowerCost(5, 0.0).cost(0, {0, 1, 2}) == pytest.approx(
            ConstantCost(5).cost(0, {0, 1, 2})
        )


class TestAdversaryCost:
    def test_theorem2_values(self):
        cost = AdversaryCost(16)
        assert cost.sqrt_block == 4
        assert cost.cost(0, {0}) == 1.0
        assert cost.cost(0, range(4)) == 1.0
        assert cost.cost(0, range(5)) == 2.0
        assert cost.full_cost(0) == 4.0

    def test_opt_of_planted_subset_is_one(self):
        cost = AdversaryCost(64)
        assert cost.cost(0, range(8)) == 1.0


class TestWeightedConcaveCost:
    def test_uniform_weights_satisfy_condition_one(self):
        cost = WeightedConcaveCost([1.0] * 6)
        assert not check_condition_one(cost, [0])

    def test_cost_values(self):
        cost = WeightedConcaveCost([1.0, 4.0], transform=math.sqrt)
        assert cost.cost(0, {0}) == pytest.approx(1.0)
        assert cost.cost(0, {1}) == pytest.approx(2.0)
        assert cost.cost(0, {0, 1}) == pytest.approx(math.sqrt(5.0))

    def test_point_scales_and_vectorized(self):
        cost = WeightedConcaveCost([1.0, 1.0], point_scales=[1.0, 2.0])
        np.testing.assert_allclose(
            cost.costs_over_points({0, 1}, [0, 1]), [math.sqrt(2), 2 * math.sqrt(2)]
        )

    def test_invalid_weights(self):
        with pytest.raises(InvalidCostFunctionError):
            WeightedConcaveCost([0.0, 1.0])
        with pytest.raises(InvalidCostFunctionError):
            WeightedConcaveCost([])

    def test_random_factory(self):
        cost = random_weighted_concave_cost(5, 7, rng=0)
        assert cost.num_commodities == 5
        assert cost.cost(3, {0, 1}) > 0


class TestPerPointScaledAndTabulated:
    def test_per_point_scaled(self):
        base = ConstantCost(3)
        cost = PerPointScaledCost(base, [1.0, 0.5])
        assert cost.cost(0, {0}) == 1.0
        assert cost.cost(1, {0, 1}) == 0.5
        with pytest.raises(InvalidCostFunctionError):
            cost.cost(5, {0})

    def test_tabulated_direct_and_cover(self):
        table = {
            (0, frozenset({0})): 1.0,
            (0, frozenset({1})): 1.0,
            (0, frozenset({0, 1})): 1.5,
        }
        cost = TabulatedCost(2, table)
        assert cost.cost(0, {0, 1}) == 1.5
        assert cost.cost(0, {0}) == 1.0
        assert cost.cost(0, ()) == 0.0

    def test_tabulated_fallback_cover(self):
        table = {(0, frozenset({0})): 1.0, (0, frozenset({1})): 2.0}
        cost = TabulatedCost(2, table)
        assert cost.cost(0, {0, 1}) == 3.0

    def test_tabulated_strict_and_uncoverable(self):
        table = {(0, frozenset({0})): 1.0}
        strict = TabulatedCost(2, table, strict=True)
        with pytest.raises(InvalidCostFunctionError):
            strict.cost(0, {0, 1})
        loose = TabulatedCost(2, table)
        with pytest.raises(InvalidCostFunctionError):
            loose.cost(0, {1})
        with pytest.raises(InvalidCostFunctionError):
            loose.cost(1, {0})

    def test_tabulated_rejects_negative(self):
        with pytest.raises(InvalidCostFunctionError):
            TabulatedCost(1, {(0, frozenset({0})): -1.0})


class TestHierarchicalCost:
    def test_balanced_hierarchy(self):
        cost = HierarchicalCost.balanced(4, branching=2, edge_weight=1.0)
        single = cost.cost(0, {0})
        pair_far = cost.cost(0, {0, 3})
        assert single > 0
        assert pair_far <= 2 * single
        assert cost.full_cost(0) <= 4 * single

    def test_explicit_tree(self):
        tree = nx.Graph()
        tree.add_edge("root", "l", weight=1.0)
        tree.add_edge("root", "r", weight=1.0)
        tree.add_edge("l", "a", weight=0.5)
        tree.add_edge("l", "b", weight=0.5)
        cost = HierarchicalCost(tree, "root", {0: "a", 1: "b", 2: "r"})
        assert cost.cost(0, {0}) == pytest.approx(1.5)
        # Shared edge root->l counted once.
        assert cost.cost(0, {0, 1}) == pytest.approx(2.0)
        assert cost.cost(0, {0, 2}) == pytest.approx(2.5)

    def test_subadditive_property(self):
        cost = HierarchicalCost.balanced(6, branching=3)
        assert not check_subadditivity(cost, [0])

    def test_invalid_inputs(self):
        with pytest.raises(InvalidCostFunctionError):
            HierarchicalCost(nx.cycle_graph(3), 0, {0: 1})
        tree = nx.path_graph(3)
        with pytest.raises(InvalidCostFunctionError):
            HierarchicalCost(tree, 99, {0: 2})
        with pytest.raises(InvalidCostFunctionError):
            HierarchicalCost(tree, 0, {1: 2})  # commodities must be 0..|S|-1


class TestOrderedLinearCost:
    def test_linear_sum(self):
        prices = [[1.0, 2.0], [2.0, 3.0]]
        cost = OrderedLinearCost(prices)
        assert cost.cost(0, {0, 1}) == 3.0
        assert cost.cost(1, {1}) == 3.0
        np.testing.assert_allclose(cost.costs_over_points({0, 1}, [0, 1]), [3.0, 5.0])

    def test_ordered_check(self):
        with pytest.raises(InvalidCostFunctionError):
            OrderedLinearCost([[1.0, 5.0], [2.0, 1.0]])
        # Same prices but check disabled.
        OrderedLinearCost([[1.0, 5.0], [2.0, 1.0]], enforce_ordered=False)

    def test_point_range(self):
        cost = OrderedLinearCost([[1.0]])
        with pytest.raises(InvalidCostFunctionError):
            cost.cost(3, {0})


#: The two readers of one configuration's cost classes: the instance's
#: CostClassIndex, which RAND-OMFLP reads, and the Meyerson helper of the
#: per-commodity baseline, which answers through that same index except for
#: its own nearest-point scan.
CLASS_PROVIDERS = ["CostClassIndex", "SingleCommodityMeyerson"]


def _one_commodity_instance(metric, scales):
    cost = ConstantCost(1, point_scales=scales)
    return Instance(metric, cost, RequestSequence.from_tuples([]))


def _class_provider(name, metric, scales):
    """A provider of 1-based class queries over one commodity costing ``scales``."""
    instance = _one_commodity_instance(metric, scales)
    if name == "SingleCommodityMeyerson":
        return SingleCommodityMeyerson(instance, 0)
    return instance.tables.cost_classes((0,))


class TestCostClassIndex:
    @pytest.mark.parametrize(
        "scales,values,points",
        [
            pytest.param(
                [1.0, 3.0, 5.0, 16.0],
                [1.0, 2.0, 4.0, 16.0],
                [(0,), (1,), (2,), (3,)],
                id="distinct",
            ),
            pytest.param(
                [3.0, 0.0, 3.0, 2.5, 0.0, 7.9],
                [0.0, 2.0, 4.0],
                [(1, 4), (0, 2, 3), (5,)],
                id="repeated-and-zero",
            ),
        ],
    )
    def test_classes_are_rounded_powers_of_two(self, scales, values, points):
        metric = uniform_line_metric(len(scales))
        cost = ConstantCost(2, point_scales=scales)
        index = CostClassIndex(metric, cost, {0})
        assert [c.value for c in index.classes] == values
        assert index.values == tuple(values)
        assert [c.points for c in index.classes] == points
        assert index.num_classes == len(values)

    def test_distance_convention_is_cumulative(self):
        metric = uniform_line_metric(4)
        cost = ConstantCost(2, point_scales=[8.0, 4.0, 2.0, 1.0])
        index = CostClassIndex(metric, cost, {0})
        # From point 0: the cheapest class (value 1) lives at point 3.
        assert index.distance_to_class(1, 0) == pytest.approx(1.0)
        # The most expensive class includes every point, so distance 0.
        assert index.distance_to_class(index.num_classes, 0) == pytest.approx(0.0)
        # Distances are non-increasing in the class index.
        distances = [index.distance_to_class(i, 0) for i in range(1, index.num_classes + 1)]
        assert distances == sorted(distances, reverse=True)

    def test_cheapest_open_option(self):
        metric = uniform_line_metric(3)
        cost = ConstantCost(1, point_scales=[10.0, 1.0, 10.0])
        index = CostClassIndex(metric, cost, {0})
        best_class, value = index.cheapest_open_option(0)
        assert value == pytest.approx(1.0 + 0.5)
        assert index.class_value(best_class) == 1.0
        assert value == min(c + d for c, d in zip(index.values, index.distances(0)))

    def test_empty_configuration_rejected(self):
        metric = uniform_line_metric(2)
        with pytest.raises(InvalidCostFunctionError):
            CostClassIndex(metric, ConstantCost(2), ())

    def test_invalid_class_index(self):
        metric = uniform_line_metric(2)
        index = CostClassIndex(metric, ConstantCost(2), {0})
        with pytest.raises(InvalidCostFunctionError):
            index.class_value(0)
        with pytest.raises(InvalidCostFunctionError):
            index.distance_to_class(99, 0)

    @pytest.mark.parametrize("provider", CLASS_PROVIDERS)
    @pytest.mark.parametrize("index", [0, -1, 6])
    def test_out_of_range_class_index_never_wraps(self, provider, index):
        """Every provider of 1-based class queries refuses 0, -1 and k + 1 with
        one error, instead of answering for the last class or a bare IndexError."""
        scales = [1.0, 2.0, 4.0, 8.0, 16.0]  # one point per class
        target = _class_provider(provider, uniform_line_metric(len(scales)), scales)
        message = re.escape(f"class index {index} out of range [1, 5]")
        queries = [
            lambda: target.class_value(index),
            lambda: target.distance_to_class(index, 0),
            lambda: target.nearest_point_of_class(index, 0),
        ]
        for query in queries + queries:  # twice: a refused query memoizes nothing
            with pytest.raises(InvalidCostFunctionError, match=message):
                query()
        assert target.class_value(5) == 16.0
        assert target.distance_to_class(5, 0) == 0.0

    @pytest.mark.parametrize("provider", CLASS_PROVIDERS)
    def test_cheapest_open_option_keeps_the_first_tied_class(self, provider):
        # From point 0: class 1 (cost 1, 5 away) and class 2 (cost 2, 4 away)
        # both offer 6.0; class 3 (point 0 itself, cost 8) offers 8.0.
        metric = LineMetric([0.0, 4.0, 5.0])
        target = _class_provider(provider, metric, [8.0, 2.0, 1.0])
        assert target.cheapest_open_option(0) == (1, 6.0)

    def test_nearest_point_tie_orders(self):
        """The two nearest-point orders differ on ties, and both are pinned.

        Seen from point 1, points 0, 2, 3 and 4 all lie 1 away.  Their
        classes are 3, 2, 1 and 1 (costs 4, 2, 1, 1; point 1 costs 16, class
        4).  The table scans class by class, so it returns the tied point of
        the cheapest class, the lowest index within that class: 3.  The
        Meyerson helper scans in ascending point order, so it returns the
        lowest tied index: 0 for class 3, 2 for class 2.  Unifying the two
        orders moves golden digests, so it must not happen silently.
        """
        metric = LineMetric([1.0, 2.0, 3.0, 1.0, 3.0])
        instance = _one_commodity_instance(metric, [4.0, 16.0, 2.0, 1.0, 1.0])
        table = instance.tables.cost_classes((0,))
        helper = SingleCommodityMeyerson(instance, 0)
        assert [c.points for c in table.classes] == [(3, 4), (2,), (0,), (1,)]
        expected = {1: (3, 3), 2: (3, 2), 3: (3, 0), 4: (1, 1)}
        for index, (table_point, helper_point) in expected.items():
            point, distance = table.nearest_point_of_class(index, 1)
            assert (point, distance) == (table_point, table.distance_to_class(index, 1))
            assert helper.nearest_point_of_class(index, 1) == helper_point
            assert metric.distance(1, helper_point) == distance


class TestPropertyCheckers:
    def test_power_cost_is_subadditive_and_condition_one(self):
        for x in (0.0, 0.5, 1.0, 2.0):
            cost = PowerCost(6, x)
            assert not check_subadditivity(cost, [0])
            assert not check_condition_one(cost, [0])
            assert not check_monotonicity(cost, [0])

    def test_adversary_cost_satisfies_condition_one(self):
        cost = AdversaryCost(16)
        assert not check_condition_one(cost, [0])
        assert not check_subadditivity(cost, [0])

    def test_skewed_weights_violate_condition_one(self):
        cost = WeightedConcaveCost([1.0, 1.0, 100.0])
        violations = check_condition_one(cost, [0])
        assert violations  # the heavy commodity breaks Condition 1

    def test_raise_on_violation(self):
        cost = WeightedConcaveCost([1.0, 1.0, 100.0])
        with pytest.raises(InvalidCostFunctionError):
            check_condition_one(cost, [0], raise_on_violation=True)

    def test_superadditive_function_detected(self):
        bad = CountBasedCost(4, lambda k: float(k * k), name="square")
        assert check_subadditivity(bad, [0])
        with pytest.raises(InvalidCostFunctionError):
            check_subadditivity(bad, [0], raise_on_violation=True)

    def test_nonmonotone_function_detected(self):
        wiggle = CountBasedCost(3, lambda k: [0.0, 2.0, 1.0, 3.0][k], name="wiggle")
        assert check_monotonicity(wiggle, [0])
        with pytest.raises(InvalidCostFunctionError):
            check_monotonicity(wiggle, [0], raise_on_violation=True)


@settings(max_examples=30, deadline=None)
@given(
    num_commodities=st.integers(min_value=2, max_value=8),
    x=st.floats(min_value=0.0, max_value=2.0),
    point_count=st.integers(min_value=1, max_value=4),
)
def test_class_c_costs_always_satisfy_paper_assumptions(num_commodities, x, point_count):
    """Property: every g_x in the class C is subadditive and satisfies Condition 1."""
    scales = list(1.0 + np.linspace(0, 1, point_count))
    cost = PowerCost(num_commodities, x, point_scales=scales)
    points = list(range(point_count))
    assert not check_subadditivity(cost, points)
    assert not check_condition_one(cost, points)
