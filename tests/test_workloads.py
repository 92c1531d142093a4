"""Tests for the synthetic workload generators and arrival-order models."""

import hashlib

import numpy as np
import pytest

from repro.algorithms.base import run_online
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.api.components import WORKLOADS
from repro.costs.count_based import LinearCost, PowerCost
from repro.exceptions import InvalidInstanceError
from repro.scenarios import SCENARIOS, scenario_from_dict
from repro.utils.rng import spawn_child_seeds
from repro.workloads import (
    adversarial_order,
    clustered_workload,
    random_order,
    service_network_workload,
    uniform_workload,
    zipf_workload,
)

#: Parameter sets of the golden-digest grid; each runs seeds 0-7, passed both
#: as an int and as a Generator.
DRAW_CASES = {
    "uniform": (uniform_workload, dict(num_requests=40, num_commodities=6, num_points=16)),
    "uniform-line": (
        uniform_workload,
        dict(
            num_requests=40, num_commodities=6, num_points=16, metric_kind="line",
            min_demand=2, max_demand=3, cost_exponent_x=0.5, cost_scale=2.0,
        ),
    ),
    "uniform-cost-function": (
        uniform_workload,
        dict(num_requests=30, num_commodities=5, num_points=9, cost_function=LinearCost(5)),
    ),
    "clustered": (clustered_workload, dict(num_requests=40, num_commodities=8)),
    "clustered-demand-size": (
        clustered_workload,
        dict(
            num_requests=40, num_commodities=8, num_clusters=3, points_per_cluster=5,
            cluster_radius=0.1, side=2.0, bundle_size=4, demand_size=2,
        ),
    ),
    "clustered-cost-function": (
        clustered_workload,
        dict(
            num_requests=30, num_commodities=6, num_clusters=2, demand_size=9,
            cost_function=PowerCost(6, 0.5, scale=3.0),
        ),
    ),
    "clustered-perfbench": (
        clustered_workload,
        dict(
            num_requests=64, num_commodities=8, num_clusters=8, points_per_cluster=32,
            cost_exponent_x=2.0, cost_scale=0.5,
        ),
    ),
    "zipf": (zipf_workload, dict(num_requests=40, num_commodities=10, num_points=12)),
    "zipf-flat": (
        zipf_workload,
        dict(
            num_requests=40, num_commodities=7, num_points=12, zipf_alpha=0.0,
            min_demand=2, max_demand=5, cost_exponent_x=2.0,
        ),
    ),
    "service-network": (
        service_network_workload, dict(num_requests=40, num_services=8, num_nodes=12)
    ),
    "service-network-spread": (
        service_network_workload,
        dict(
            num_requests=40, num_services=6, num_nodes=10, num_profiles=3, profile_size=2,
            edge_probability=0.3, zipf_alpha=0.5, node_cost_spread=0.0,
            service_weight_spread=0.7,
        ),
    ),
    "service-network-defaults": (
        service_network_workload, dict(num_requests=60, num_services=6)
    ),
}

#: Produced by ``_draw_digest`` with the stand-alone generator loops that
#: preceded the scenario adapters.  A change here changes the instance every
#: workload spec, experiment and benchmark builds from a given seed.
GOLDEN_DRAW_DIGESTS = {
    "uniform": "90749a21766460f1089c8a8a5c968668eb973a9e1bb68071f67ab5cdec839b2c",
    "uniform-line": "26dd7b426221499ad597b5bc173b7f27341d65e9edc6999297321a2492d2cf8b",
    "uniform-cost-function": "dd7e06295c9f69d49c41319479316c4aac5390348b9d19136a2c97bf02e79a1f",
    "clustered": "8d74173fd09ba3dcd6732cf947e7278fd4a70b1bcdf212612c74a59ddfa2704f",
    "clustered-demand-size": "e299957f3c8befee95351a51635d080cc6a1c3b806a28f3a3b58c3bca8086ae1",
    "clustered-cost-function": "f74e96fe50d85ba2f6b3df7be562ff77942181ab6759097204f2672f52f74be7",
    "clustered-perfbench": "31077b2333b71e29f9e75cad0451eb5ad2bae613bb7d2ebf7f85f225ee6d751e",
    "zipf": "5e8f5ef3a44f970628ac4c25ff84d5b396b329a79fbebfcfcbed8c5a8b5c8d8b",
    "zipf-flat": "29aaac3001a649424cdfda13f57f21225db8647fd25d57d8f616c5f813b699bd",
    "service-network": "595427e40b4941ae09f24f3eb3ac5d1b1f5d1038678fb6cf8eb145d8fd9fa1f1",
    "service-network-spread": "f941d5077db8374cc5f3bb2f90453c23a37fec8e2fcd9d849f016d904118f529",
    "service-network-defaults": "76ec2a842bb84d44b79e73ac0ddfd404ea6bcddb4c3b2de06279431dd7f5993e",
}


def _feed(digest, value):
    digest.update(repr(value).encode())
    digest.update(b"\x00")


def _draw_digest(builder, params):
    """SHA-256 over every draw: requests, distances, costs, planted specs, names.

    With a Generator ``rng`` it also covers the generator's end state, which
    ``components_from_spec`` hands on to the session.
    """
    digest = hashlib.sha256()
    for seed in range(8):
        for as_generator in (False, True):
            rng = np.random.default_rng(seed) if as_generator else seed
            workload = builder(rng=rng, **params)
            instance = workload.instance
            _feed(digest, instance.name)
            for request in instance.requests:
                _feed(digest, (request.index, request.point, sorted(request.commodities)))
            metric = instance.metric
            for point in range(metric.num_points):
                digest.update(np.asarray(metric.distances_from(point), dtype=np.float64).tobytes())
            cost = instance.cost_function
            everything = list(range(cost.num_commodities))
            for point in range(metric.num_points):
                for configuration in [[e] for e in everything] + [everything]:
                    _feed(digest, float(cost.cost(point, configuration)).hex())
            _feed(digest, [(p, sorted(c)) for p, c in workload.planted_specs or []])
            if as_generator:
                _feed(digest, rng.bit_generator.state)
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_eager_draws_match_golden_digest(case):
    builder, params = DRAW_CASES[case]
    assert _draw_digest(builder, params) == GOLDEN_DRAW_DIGESTS[case]


@pytest.mark.parametrize("kind", WORKLOADS.names())
def test_workload_keywords_are_scenario_keywords(kind):
    """Each eager builder adapts its scenario and adds only ``rng`` and ``cost_function``."""
    extra = set(WORKLOADS.accepted_params(kind)) - set(SCENARIOS.accepted_params(kind))
    assert extra <= {"rng", "cost_function"}


class TestUniformWorkload:
    def test_dimensions(self):
        workload = uniform_workload(num_requests=20, num_commodities=5, num_points=10, rng=0)
        instance = workload.instance
        assert instance.num_requests == 20
        assert instance.num_commodities == 5
        assert instance.num_points == 10
        assert workload.planted_specs is None
        assert workload.planted_solver() is None
        assert workload.describe()["workload"] == "uniform"

    def test_demand_bounds_respected(self):
        workload = uniform_workload(
            num_requests=30, num_commodities=6, num_points=8, min_demand=2, max_demand=3, rng=1
        )
        sizes = {r.num_commodities for r in workload.instance.requests}
        assert sizes <= {2, 3}

    def test_line_metric_kind(self):
        workload = uniform_workload(
            num_requests=5, num_commodities=2, num_points=6, metric_kind="line", rng=2
        )
        assert type(workload.instance.metric).__name__ == "LineMetric"

    def test_custom_cost_function(self):
        cost = LinearCost(3)
        workload = uniform_workload(
            num_requests=5, num_commodities=3, num_points=4, cost_function=cost, rng=3
        )
        assert workload.instance.cost_function is cost

    def test_deterministic_by_seed(self):
        a = uniform_workload(num_requests=10, num_commodities=3, num_points=5, rng=7)
        b = uniform_workload(num_requests=10, num_commodities=3, num_points=5, rng=7)
        assert [r.point for r in a.instance.requests] == [r.point for r in b.instance.requests]
        assert [r.commodities for r in a.instance.requests] == [
            r.commodities for r in b.instance.requests
        ]

    def test_validation(self):
        with pytest.raises(InvalidInstanceError, match="num_requests"):
            uniform_workload(num_requests=0, num_commodities=2, rng=0)
        with pytest.raises(InvalidInstanceError, match="min_demand"):
            uniform_workload(num_requests=5, num_commodities=2, min_demand=3, max_demand=2, rng=0)
        with pytest.raises(InvalidInstanceError, match="metric_kind"):
            uniform_workload(num_requests=5, num_commodities=2, metric_kind="torus", rng=0)
        with pytest.raises(InvalidInstanceError, match="cost_function"):
            uniform_workload(
                num_requests=5, num_commodities=2, cost_function=LinearCost(3), rng=0
            )


class TestClusteredWorkload:
    def test_planted_solution_is_feasible_reference(self):
        workload = clustered_workload(num_requests=25, num_commodities=8, num_clusters=3, rng=0)
        assert workload.planted_specs is not None
        assert len(workload.planted_specs) == 3
        planted = workload.planted_solver().solve(workload.instance)
        planted.solution.validate(workload.instance.requests)
        assert planted.total_cost > 0

    def test_requests_demand_subsets_of_their_cluster_bundle(self):
        workload = clustered_workload(
            num_requests=30, num_commodities=10, num_clusters=4, bundle_size=3, rng=1
        )
        bundles = [frozenset(config) for _, config in workload.planted_specs]
        for request in workload.instance.requests:
            assert any(request.commodities <= bundle for bundle in bundles)

    def test_demand_size_override(self):
        workload = clustered_workload(
            num_requests=10, num_commodities=6, num_clusters=2, bundle_size=4, demand_size=2, rng=2
        )
        assert all(r.num_commodities == 2 for r in workload.instance.requests)

    def test_cluster_radius_controls_spread(self):
        tight = clustered_workload(
            num_requests=15, num_commodities=4, num_clusters=2, cluster_radius=0.0, rng=3
        )
        # Radius zero: all cluster points coincide with the center, so the
        # planted solution has zero connection cost.
        planted = tight.planted_solver().solve(tight.instance)
        assert planted.connection_cost == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidInstanceError, match="num_clusters"):
            clustered_workload(num_requests=5, num_commodities=4, num_clusters=0, rng=0)
        with pytest.raises(InvalidInstanceError, match="bundle_size"):
            clustered_workload(num_requests=5, num_commodities=4, bundle_size=9, rng=0)
        with pytest.raises(InvalidInstanceError, match="cluster_radius"):
            clustered_workload(num_requests=5, num_commodities=4, cluster_radius=-1.0, rng=0)


class TestZipfWorkload:
    def test_popular_commodities_dominate(self):
        workload = zipf_workload(
            num_requests=200, num_commodities=20, num_points=10, zipf_alpha=1.5, rng=0
        )
        counts = np.zeros(20)
        for request in workload.instance.requests:
            for commodity in request.commodities:
                counts[commodity] += 1
        assert counts[0] > counts[10]
        assert counts[:3].sum() > counts[10:].sum()

    def test_alpha_zero_is_roughly_uniform(self):
        workload = zipf_workload(
            num_requests=300, num_commodities=5, num_points=10, zipf_alpha=0.0, rng=1
        )
        counts = np.zeros(5)
        for request in workload.instance.requests:
            for commodity in request.commodities:
                counts[commodity] += 1
        assert counts.min() > 0.5 * counts.max()

    def test_validation(self):
        with pytest.raises(InvalidInstanceError, match="zipf_alpha"):
            zipf_workload(num_requests=5, num_commodities=3, zipf_alpha=-1.0, rng=0)


class TestServiceNetworkWorkload:
    def test_structure(self):
        workload = service_network_workload(
            num_requests=30, num_services=8, num_nodes=12, num_profiles=3, profile_size=2, rng=0
        )
        instance = workload.instance
        assert instance.num_requests == 30
        assert instance.num_commodities == 8
        assert instance.num_points == 12
        assert instance.commodities.name_of(0) == "service-0"
        assert workload.metadata["workload"] == "service-network"

    def test_runs_end_to_end_with_pd(self):
        workload = service_network_workload(
            num_requests=15, num_services=5, num_nodes=10, rng=1
        )
        result = run_online(PDOMFLPAlgorithm(), workload.instance)
        result.solution.validate(workload.instance.requests)

    def test_validation(self):
        with pytest.raises(InvalidInstanceError, match="num_nodes"):
            service_network_workload(num_requests=5, num_services=3, num_nodes=1, rng=0)
        with pytest.raises(InvalidInstanceError, match="profile_size"):
            service_network_workload(
                num_requests=5, num_services=3, num_nodes=5, profile_size=9, rng=0
            )


class TestArrivalOrders:
    def test_random_order_preserves_multiset(self, small_instance):
        shuffled = random_order(small_instance, rng=0)
        assert shuffled.num_requests == small_instance.num_requests
        original = sorted((r.point, tuple(sorted(r.commodities))) for r in small_instance.requests)
        permuted = sorted((r.point, tuple(sorted(r.commodities))) for r in shuffled.requests)
        assert original == permuted

    def test_adversarial_order_sorts_small_demands_first(self, small_instance):
        reordered = adversarial_order(small_instance)
        sizes = [r.num_commodities for r in reordered.requests]
        assert sizes == sorted(sizes)

    def test_adversarial_order_is_the_sparse_first_arrival_order(self):
        """One sparse-first key for both; dense-first is its exact reverse."""
        # Radius zero puts every cluster's points at its center, so many
        # requests tie on (size, distance) and the position decides.
        child = {
            "kind": "clustered", "num_requests": 60, "num_commodities": 6, "cluster_radius": 0.0,
        }

        def arrivals(order, seed):
            spec = {"kind": "arrival-order", "child": child, "order": order}
            requests = scenario_from_dict(spec).realize(seed).instance.requests
            return [(r.point, r.commodities) for r in requests]

        for seed in range(4):
            # Combinators open their child with the second child seed.
            plain = scenario_from_dict(child).realize(spawn_child_seeds(seed, 2)[1]).instance
            adversarial = [(r.point, r.commodities) for r in adversarial_order(plain).requests]
            assert adversarial == arrivals("sparse-first", seed)
            assert arrivals("dense-first", seed) == adversarial[::-1]

    def test_orders_preserve_costs_of_offline_solutions(self, small_instance):
        """Reordering changes only the arrival order, not the offline optimum."""
        from repro.algorithms.offline.greedy import GreedyOfflineSolver

        base = GreedyOfflineSolver().solve(small_instance).total_cost
        shuffled = GreedyOfflineSolver().solve(random_order(small_instance, rng=1)).total_cost
        assert base == pytest.approx(shuffled)
