"""Tests for the single-commodity OFL substrates and the greedy baselines."""

import sys

import numpy as np
import pytest

from repro.accel.tracker import NearestSetTracker

from repro.algorithms.base import run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.online.always_large import AlwaysLargeGreedy
from repro.algorithms.online.fotakis_ofl import SingleCommodityPrimalDual
from repro.algorithms.online.meyerson_ofl import SingleCommodityMeyerson
from repro.algorithms.online.no_prediction import NoPredictionGreedy
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import (
    FotakisOFLAlgorithm,
    MeyersonOFLAlgorithm,
    PerCommodityAlgorithm,
)
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import AdversaryCost, ConstantCost, LinearCost
from repro.exceptions import AlgorithmError
from repro.metric.factories import uniform_line_metric
from repro.metric.single_point import SinglePointMetric
from repro.workloads.uniform import uniform_workload


def single_commodity_instance(num_requests: int = 10, seed: int = 0) -> Instance:
    return uniform_workload(
        num_requests=num_requests,
        num_commodities=1,
        num_points=16,
        metric_kind="line",
        max_demand=1,
        cost_exponent_x=0.0,
        cost_scale=0.3,
        rng=seed,
    ).instance


def one_commodity_state(metric, costs) -> OnlineState:
    """A real online state on |S| = 1 with opening cost ``costs[m]`` at point ``m``."""
    cost = ConstantCost(1, point_scales=costs)
    return OnlineState(Instance(metric, cost, RequestSequence.from_tuples([])))


def demand(index: int, point: int) -> Request:
    return Request(index, point, frozenset({0}))


def duals(helper: SingleCommodityPrimalDual):
    return helper.state_dict()["history"]["duals"]


class TestSingleCommodityPrimalDualHelper:
    def test_opens_then_reuses(self):
        metric = uniform_line_metric(3)
        state = one_commodity_state(metric, [1.0, 1.0, 1.0])
        helper = SingleCommodityPrimalDual(state.instance, 0)
        opened = helper.decide(demand(0, 0), state, None)
        assert duals(helper) == [pytest.approx(1.0)]
        assert helper.decide(demand(1, 0), state, None) == opened
        assert duals(helper)[1] == pytest.approx(0.0)
        assert [f.point for f in state.store.facilities_offering(0)] == [0]
        assert duals(helper) == [1.0, 0.0]

    def test_prefers_cheap_remote_point(self):
        metric = uniform_line_metric(3)
        state = one_commodity_state(metric, [10.0, 0.1, 10.0])
        helper = SingleCommodityPrimalDual(state.instance, 0)
        opened = helper.decide(demand(0, 0), state, None)
        assert len(state.store) == 1
        assert state.store[opened].point == 1
        assert duals(helper) == [pytest.approx(0.6)]  # distance 0.5 + cost 0.1


class TestSingleCommodityMeyersonHelper:
    def test_classes_and_budget(self):
        metric = uniform_line_metric(4)
        state = one_commodity_state(metric, [1.0, 2.0, 4.0, 8.0])
        helper = SingleCommodityMeyerson(state.instance, 0)
        assert helper.num_classes == 4
        assert helper.class_value(1) == 1.0
        assert helper.distance_to_class(4, 0) == 0.0
        # Budget min{d(F(e), r), cheapest open option} before any facility:
        # the cheapest open option.
        _, cheapest_open = helper.cheapest_open_option(0)
        assert min(state.distance_to_nearest(0, 0), cheapest_open) == pytest.approx(1.0)

    def test_decide_always_yields_a_facility(self):
        metric = uniform_line_metric(4)
        state = one_commodity_state(metric, [1.0, 1.0, 1.0, 1.0])
        helper = SingleCommodityMeyerson(state.instance, 0)
        rng = np.random.default_rng(0)
        facility_id = helper.decide(demand(0, 2), state, rng)
        assert state.store.facilities_offering(0)
        assert state.nearest_offering(0, 2)[0].id == facility_id
        assert state.distance_to_nearest(0, 2) < float("inf")


class TestOFLAlgorithms:
    def test_fotakis_requires_single_commodity(self, small_instance):
        with pytest.raises(
            AlgorithmError, match=r"^FotakisOFLAlgorithm requires \|S\| = 1; got \|S\| = 4$"
        ):
            run_online(FotakisOFLAlgorithm(), small_instance)

    def test_meyerson_requires_single_commodity(self, small_instance):
        with pytest.raises(
            AlgorithmError, match=r"^MeyersonOFLAlgorithm requires \|S\| = 1; got \|S\| = 4$"
        ):
            run_online(MeyersonOFLAlgorithm(), small_instance, rng=0)

    @pytest.mark.parametrize(
        "single,base", [(FotakisOFLAlgorithm, "fotakis"), (MeyersonOFLAlgorithm, "meyerson")]
    )
    def test_single_commodity_algorithm_is_the_baseline_at_one_commodity(self, single, base):
        instance = single_commodity_instance(40, seed=4)
        ofl = run_online(single(), instance, rng=5)
        baseline = run_online(PerCommodityAlgorithm(base), instance, rng=5)
        assert ofl.solution.facilities == baseline.solution.facilities
        assert list(ofl.solution.assignments) == list(baseline.solution.assignments)
        assert ofl.total_cost == baseline.total_cost

    def test_fotakis_reasonable_on_single_commodity(self):
        instance = single_commodity_instance(12, seed=1)
        result = run_online(FotakisOFLAlgorithm(), instance)
        result.solution.validate(instance.requests)
        opt = BruteForceSolver(max_combinations=200_000,
                               configurations=[{0}]).solve(instance).total_cost
        assert opt - 1e-9 <= result.total_cost <= 10 * opt

    def test_meyerson_reasonable_on_single_commodity(self):
        instance = single_commodity_instance(12, seed=2)
        costs = []
        for seed in range(6):
            result = run_online(MeyersonOFLAlgorithm(), instance, rng=seed)
            result.solution.validate(instance.requests)
            costs.append(result.total_cost)
        opt = BruteForceSolver(max_combinations=200_000,
                               configurations=[{0}]).solve(instance).total_cost
        assert np.mean(costs) <= 10 * opt

    def test_fotakis_matches_pd_on_single_commodity(self):
        """With |S| = 1, PD-OMFLP and the Fotakis substrate implement the same rule."""
        instance = single_commodity_instance(10, seed=3)
        fotakis = run_online(FotakisOFLAlgorithm(), instance)
        pd = run_online(PDOMFLPAlgorithm(), instance)
        assert fotakis.total_cost == pytest.approx(pd.total_cost, rel=1e-6)


class TestPerCommodityBaseline:
    @pytest.mark.parametrize(
        "factory",
        [
            FotakisOFLAlgorithm,
            MeyersonOFLAlgorithm,
            lambda: PerCommodityAlgorithm("fotakis"),
            lambda: PerCommodityAlgorithm("meyerson"),
        ],
        ids=["fotakis-ofl", "meyerson-ofl", "per-commodity-fotakis", "per-commodity-meyerson"],
    )
    def test_only_the_facility_store_builds_trackers(self, factory, monkeypatch):
        """The helpers read F(e) from the state: no nearest-facility tracker
        of their own, so every tracker of a run is one the store builds."""
        builders = []
        build = NearestSetTracker.__init__

        def recording_init(tracker):
            builders.append(sys._getframe(1).f_globals["__name__"])
            build(tracker)

        monkeypatch.setattr(NearestSetTracker, "__init__", recording_init)
        single = isinstance(factory(), (FotakisOFLAlgorithm, MeyersonOFLAlgorithm))
        instance = single_commodity_instance(20, seed=6) if single else uniform_workload(
            num_requests=20, num_commodities=3, num_points=16, rng=6
        ).instance
        run_online(factory(), instance, rng=0)
        assert builders and set(builders) == {"repro.core.facility"}

    @pytest.mark.parametrize(
        "factory,num_commodities",
        [
            (FotakisOFLAlgorithm, 1),
            (MeyersonOFLAlgorithm, 1),
            (lambda: PerCommodityAlgorithm("meyerson"), 1),
            (AlwaysLargeGreedy, 3),
        ],
        ids=["fotakis-ofl", "meyerson-ofl", "per-commodity-meyerson", "always-large-s3"],
    )
    def test_each_opening_folds_one_column_per_distinct_tracker(
        self, factory, num_commodities, monkeypatch
    ):
        """At |S| = 1 every facility is large and F̂ is F(0): the store keeps
        one tracker for both, so an opening makes one ``add`` call.  With
        more commodities a large facility folds into each commodity's
        tracker and the large one."""
        adds = []
        add = NearestSetTracker.add

        def counting_add(tracker, column, tag=None):
            adds.append(tag)
            add(tracker, column, tag=tag)

        monkeypatch.setattr(NearestSetTracker, "add", counting_add)
        instance = uniform_workload(
            num_requests=40, num_commodities=num_commodities, num_points=16, rng=4
        ).instance
        result = run_online(factory(), instance, rng=0)
        facilities = result.solution.facilities
        assert facilities
        expected = [
            facility.id
            for facility in facilities
            for _ in range(len(facility.configuration) + (num_commodities > 1))
        ]
        assert adds == expected

    def test_feasible_and_ignores_bundling(self, single_point_instance_constant):
        result = run_online(PerCommodityAlgorithm("fotakis"), single_point_instance_constant)
        result.solution.validate(single_point_instance_constant.requests)
        # One facility per commodity: pays |S| while OPT pays 1.
        assert result.total_cost == pytest.approx(6.0)
        assert result.solution.num_facilities() == 6

    def test_meyerson_base_feasible(self, small_instance):
        result = run_online(PerCommodityAlgorithm("meyerson"), small_instance, rng=0)
        result.solution.validate(small_instance.requests)

    def test_unknown_base_rejected(self):
        with pytest.raises(AlgorithmError):
            PerCommodityAlgorithm("unknown")

    def test_facilities_are_singletons(self, small_instance):
        result = run_online(PerCommodityAlgorithm("fotakis"), small_instance)
        for facility in result.solution.facilities:
            assert len(facility.configuration) == 1


class TestGreedyBaselines:
    def test_no_prediction_never_predicts(self, small_instance):
        result = run_online(NoPredictionGreedy(), small_instance)
        result.solution.validate(small_instance.requests)
        for facility in result.solution.facilities:
            assert len(facility.configuration) == 1

    def test_no_prediction_pays_s_on_constant_cost(self, single_point_instance_constant):
        result = run_online(NoPredictionGreedy(), single_point_instance_constant)
        assert result.total_cost == pytest.approx(6.0)

    def test_always_large_only_opens_full_configurations(self, small_instance):
        result = run_online(AlwaysLargeGreedy(), small_instance)
        result.solution.validate(small_instance.requests)
        for facility in result.solution.facilities:
            assert facility.configuration == small_instance.cost_function.full_set

    def test_always_large_pays_once_on_single_point(self, single_point_instance_constant):
        result = run_online(AlwaysLargeGreedy(), single_point_instance_constant)
        assert result.total_cost == pytest.approx(1.0)
        assert result.solution.num_facilities() == 1

    def test_always_large_wasteful_under_linear_costs(self):
        """Linear costs: opening all of S for a single-commodity request is |S|x too much."""
        metric = SinglePointMetric()
        instance = Instance(metric, LinearCost(8), RequestSequence.from_tuples([(0, {0})]))
        large = run_online(AlwaysLargeGreedy(), instance)
        pd = run_online(PDOMFLPAlgorithm(), instance)
        assert large.total_cost == pytest.approx(8.0)
        assert pd.total_cost == pytest.approx(1.0)
