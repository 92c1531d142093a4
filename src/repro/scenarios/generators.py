"""Primitive streaming scenario generators.

The four workload families (``uniform``, ``clustered``, ``zipf``,
``service-network``) are generated here and nowhere else: the environment
(metric, cost, cluster geometry, service profiles) is built up front from the
environment child seed, and requests are then drawn one at a time — a
10^6-request run never materializes a request array.  The eager builders of
:mod:`repro.workloads` are thin adapters over these classes that draw the
environment and then the requests from the caller's one generator.  Their
keywords are these scenarios' keywords (less ``extra_service_probability``)
plus ``rng`` and, for ``uniform`` and ``clustered``, ``cost_function``; so
workload spec dicts double as scenario specs.

Two new arrival processes exercise regimes the eager generators cannot:

* :class:`BurstScenario` — hotspot arrival *clumps*: the stream alternates
  between geometrically-sized bursts anchored at a hotspot (same neighborhood,
  same commodity bundle) and background noise, modelling flash crowds on the
  introduction's service provider;
* :class:`DriftScenario` — *nonstationary* demand: a latent cluster center
  random-walks through the metric space while the demanded commodity window
  rotates, so the "right" facilities change over the lifetime of the stream
  (the regime where online algorithms genuinely cannot rely on early
  requests predicting late ones).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.commodities import CommodityUniverse
from repro.costs.count_based import PowerCost
from repro.costs.general import WeightedConcaveCost
from repro.metric.factories import (
    random_euclidean_metric,
    random_graph_metric,
    random_line_metric,
)
from repro.scenarios.base import (
    Scenario,
    ScenarioEnvironment,
    ScenarioRequest,
    ScenarioStream,
    check_choice,
    check_count,
    check_fraction,
    check_non_negative,
    check_optional_count,
    check_positive,
    param_error,
    register_scenario,
)
from repro.utils.rng import choose_distinct

__all__ = [
    "UniformScenario",
    "ClusteredScenario",
    "ZipfScenario",
    "ServiceNetworkScenario",
    "BurstScenario",
    "DriftScenario",
]


def _demand_bounds(
    kind: str, num_commodities: int, min_demand: int, max_demand: Optional[int]
) -> Tuple[int, int]:
    """Validate and default the per-request demand-size bounds."""
    upper = max_demand if max_demand is not None else min(num_commodities, 4)
    if not 1 <= min_demand <= upper <= num_commodities:
        raise param_error(
            kind,
            "min_demand/max_demand",
            f"must satisfy 1 <= min_demand <= max_demand <= |S| "
            f"(got {min_demand}, {upper}, {num_commodities})",
        )
    return int(min_demand), int(upper)


def _demand_size(rng, min_demand: int, max_demand: int) -> int:
    """One ``integers(min_demand, max_demand + 1)`` draw; none when the bounds agree.

    numpy returns the one value of a one-value range without touching the
    generator, so skipping the call leaves the stream bit-identical.
    """
    if min_demand == max_demand:
        return min_demand
    return int(rng.integers(min_demand, max_demand + 1))


# ----------------------------------------------------------------------
# uniform
# ----------------------------------------------------------------------
@register_scenario("uniform")
class UniformScenario(Scenario):
    """Uniformly random request points with uniformly random demand sets."""

    def __init__(
        self,
        *,
        num_requests: Optional[int] = None,
        num_commodities: int,
        num_points: int = 64,
        metric_kind: str = "euclidean",
        cost_exponent_x: float = 1.0,
        cost_scale: float = 1.0,
        min_demand: int = 1,
        max_demand: Optional[int] = None,
    ) -> None:
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self.num_commodities = check_count(self.kind, "num_commodities", num_commodities)
        self.num_points = check_count(self.kind, "num_points", num_points)
        self.metric_kind = check_choice(
            self.kind, "metric_kind", metric_kind, ("euclidean", "line")
        )
        self.cost_exponent_x = check_non_negative(
            self.kind, "cost_exponent_x", cost_exponent_x
        )
        self.cost_scale = check_positive(self.kind, "cost_scale", cost_scale)
        self.min_demand, self.max_demand = _demand_bounds(
            self.kind,
            self.num_commodities,
            check_count(self.kind, "min_demand", min_demand),
            check_optional_count(self.kind, "max_demand", max_demand),
        )

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "num_commodities": self.num_commodities,
            "num_points": self.num_points,
            "metric_kind": self.metric_kind,
            "cost_exponent_x": self.cost_exponent_x,
            "cost_scale": self.cost_scale,
            "min_demand": self.min_demand,
            "max_demand": self.max_demand,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def shape(self) -> Optional[Tuple[int, int]]:
        return self.num_points, self.num_commodities

    def _build_environment(self, rng):
        if self.metric_kind == "euclidean":
            metric = random_euclidean_metric(self.num_points, rng=rng)
        else:
            metric = random_line_metric(self.num_points, rng=rng)
        cost = PowerCost(self.num_commodities, self.cost_exponent_x, scale=self.cost_scale)
        env = ScenarioEnvironment(
            metric,
            cost,
            CommodityUniverse(self.num_commodities),
            name=f"uniform(n={self.num_requests},S={self.num_commodities},M={self.num_points})",
        )
        return env, {}

    def _stream(self, environment, aux, rng):
        return _UniformStream(self, environment, rng)


class _UniformStream(ScenarioStream):
    def _next(self) -> Optional[ScenarioRequest]:
        scenario: UniformScenario = self._scenario
        point = int(self._rng.integers(0, self._env.num_points))
        size = _demand_size(self._rng, scenario.min_demand, scenario.max_demand)
        demand = self._env.commodities.sample_subset(size, rng=self._rng)
        return point, demand


# ----------------------------------------------------------------------
# clustered
# ----------------------------------------------------------------------
@register_scenario("clustered")
class ClusteredScenario(Scenario):
    """Requests clustered around planted centers with per-center bundles."""

    def __init__(
        self,
        *,
        num_requests: Optional[int] = None,
        num_commodities: int,
        num_clusters: int = 4,
        points_per_cluster: int = 12,
        cluster_radius: float = 0.05,
        side: float = 1.0,
        bundle_size: Optional[int] = None,
        demand_size: Optional[int] = None,
        cost_exponent_x: float = 1.0,
        cost_scale: float = 1.0,
    ) -> None:
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self.num_commodities = check_count(self.kind, "num_commodities", num_commodities)
        self.num_clusters = check_count(self.kind, "num_clusters", num_clusters)
        self.points_per_cluster = check_count(
            self.kind, "points_per_cluster", points_per_cluster
        )
        self.cluster_radius = check_non_negative(self.kind, "cluster_radius", cluster_radius)
        self.side = check_positive(self.kind, "side", side)
        default_bundle = min(
            self.num_commodities, max(2, self.num_commodities // self.num_clusters)
        )
        self.bundle_size = (
            default_bundle
            if bundle_size is None
            else check_count(self.kind, "bundle_size", bundle_size)
        )
        if self.bundle_size > self.num_commodities:
            raise param_error(
                self.kind,
                "bundle_size",
                f"must lie in [1, {self.num_commodities}], got {self.bundle_size}",
            )
        self.demand_size = check_optional_count(self.kind, "demand_size", demand_size)
        self.cost_exponent_x = check_non_negative(
            self.kind, "cost_exponent_x", cost_exponent_x
        )
        self.cost_scale = check_positive(self.kind, "cost_scale", cost_scale)

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "num_commodities": self.num_commodities,
            "num_clusters": self.num_clusters,
            "points_per_cluster": self.points_per_cluster,
            "cluster_radius": self.cluster_radius,
            "side": self.side,
            "bundle_size": self.bundle_size,
            "demand_size": self.demand_size,
            "cost_exponent_x": self.cost_exponent_x,
            "cost_scale": self.cost_scale,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def shape(self) -> Optional[Tuple[int, int]]:
        return self.num_clusters * self.points_per_cluster, self.num_commodities

    def _build_environment(self, rng):
        from repro.metric.euclidean import EuclideanMetric

        coordinates: List[Tuple[float, float]] = []
        center_points: List[int] = []
        cluster_points: List[List[int]] = []
        for _ in range(self.num_clusters):
            cx, cy = rng.uniform(0.0, self.side, size=2)
            center_index = len(coordinates)
            coordinates.append((float(cx), float(cy)))
            members = [center_index]
            for _ in range(self.points_per_cluster - 1):
                angle = rng.uniform(0.0, 2.0 * np.pi)
                radius = rng.uniform(0.0, self.cluster_radius)
                coordinates.append(
                    (float(cx + radius * np.cos(angle)), float(cy + radius * np.sin(angle)))
                )
                members.append(len(coordinates) - 1)
            center_points.append(center_index)
            cluster_points.append(members)
        metric = EuclideanMetric(np.asarray(coordinates, dtype=np.float64))
        universe = CommodityUniverse(self.num_commodities)
        bundles: List[FrozenSet[int]] = [
            universe.sample_subset(self.bundle_size, rng=rng)
            for _ in range(self.num_clusters)
        ]
        cost = PowerCost(self.num_commodities, self.cost_exponent_x, scale=self.cost_scale)
        env = ScenarioEnvironment(
            metric,
            cost,
            universe,
            name=(
                f"clustered(n={self.num_requests},S={self.num_commodities},"
                f"k={self.num_clusters},r={self.cluster_radius:g})"
            ),
            planted_specs=[
                (center_points[c], bundles[c]) for c in range(self.num_clusters)
            ],
        )
        return env, {"cluster_points": cluster_points, "bundles": bundles}

    def _stream(self, environment, aux, rng):
        return _ClusteredStream(self, environment, rng, aux)


class _ClusteredStream(ScenarioStream):
    def __init__(self, scenario, environment, rng, aux):
        super().__init__(scenario, environment, rng)
        self._cluster_points: List[List[int]] = aux["cluster_points"]
        self._bundles: List[List[int]] = [sorted(b) for b in aux["bundles"]]

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: ClusteredScenario = self._scenario
        cluster = int(self._rng.integers(0, scenario.num_clusters))
        members = self._cluster_points[cluster]
        point = int(members[int(self._rng.integers(0, len(members)))])
        bundle = self._bundles[cluster]
        if scenario.demand_size is not None:
            size = min(scenario.demand_size, len(bundle))
        else:
            size = int(self._rng.integers(1, len(bundle) + 1))
        chosen = choose_distinct(self._rng, len(bundle), size)
        return point, frozenset(bundle[i] for i in chosen)


# ----------------------------------------------------------------------
# zipf
# ----------------------------------------------------------------------
@register_scenario("zipf")
class ZipfScenario(Scenario):
    """Uniform request locations with Zipf-skewed commodity demand."""

    def __init__(
        self,
        *,
        num_requests: Optional[int] = None,
        num_commodities: int,
        num_points: int = 64,
        zipf_alpha: float = 1.2,
        min_demand: int = 1,
        max_demand: Optional[int] = None,
        cost_exponent_x: float = 1.0,
    ) -> None:
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self.num_commodities = check_count(self.kind, "num_commodities", num_commodities)
        self.num_points = check_count(self.kind, "num_points", num_points)
        self.zipf_alpha = check_non_negative(self.kind, "zipf_alpha", zipf_alpha)
        self.cost_exponent_x = check_non_negative(
            self.kind, "cost_exponent_x", cost_exponent_x
        )
        self.min_demand, self.max_demand = _demand_bounds(
            self.kind,
            self.num_commodities,
            check_count(self.kind, "min_demand", min_demand),
            check_optional_count(self.kind, "max_demand", max_demand),
        )

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "num_commodities": self.num_commodities,
            "num_points": self.num_points,
            "zipf_alpha": self.zipf_alpha,
            "min_demand": self.min_demand,
            "max_demand": self.max_demand,
            "cost_exponent_x": self.cost_exponent_x,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def shape(self) -> Optional[Tuple[int, int]]:
        return self.num_points, self.num_commodities

    def _build_environment(self, rng):
        metric = random_euclidean_metric(self.num_points, rng=rng)
        cost = PowerCost(self.num_commodities, self.cost_exponent_x)
        env = ScenarioEnvironment(
            metric,
            cost,
            CommodityUniverse(self.num_commodities),
            name=(
                f"zipf(n={self.num_requests},S={self.num_commodities},"
                f"alpha={self.zipf_alpha:g})"
            ),
        )
        ranks = np.arange(1, self.num_commodities + 1, dtype=np.float64)
        return env, {"weights": 1.0 / np.power(ranks, self.zipf_alpha)}

    def _stream(self, environment, aux, rng):
        return _ZipfStream(self, environment, rng, aux)


class _ZipfStream(ScenarioStream):
    def __init__(self, scenario, environment, rng, aux):
        super().__init__(scenario, environment, rng)
        self._weights = aux["weights"]

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: ZipfScenario = self._scenario
        point = int(self._rng.integers(0, self._env.num_points))
        size = _demand_size(self._rng, scenario.min_demand, scenario.max_demand)
        demand = self._env.commodities.sample_subset(
            size, rng=self._rng, weights=self._weights
        )
        return point, demand


# ----------------------------------------------------------------------
# service-network
# ----------------------------------------------------------------------
@register_scenario("service-network")
class ServiceNetworkScenario(Scenario):
    """The introduction's provider scenario: service bundles on a network."""

    def __init__(
        self,
        *,
        num_requests: Optional[int] = None,
        num_services: int,
        num_nodes: int = 48,
        num_profiles: int = 6,
        profile_size: int = 3,
        edge_probability: float = 0.1,
        zipf_alpha: float = 1.1,
        node_cost_spread: float = 0.5,
        service_weight_spread: float = 0.0,
        extra_service_probability: float = 0.25,
    ) -> None:
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self.num_services = check_count(self.kind, "num_services", num_services)
        self.num_nodes = check_count(self.kind, "num_nodes", num_nodes, minimum=2)
        self.num_profiles = check_count(self.kind, "num_profiles", num_profiles)
        self.profile_size = check_count(self.kind, "profile_size", profile_size)
        if self.profile_size > self.num_services:
            raise param_error(
                self.kind,
                "profile_size",
                f"must lie in [1, {self.num_services}], got {self.profile_size}",
            )
        self.edge_probability = check_fraction(self.kind, "edge_probability", edge_probability)
        self.zipf_alpha = check_non_negative(self.kind, "zipf_alpha", zipf_alpha)
        self.node_cost_spread = check_non_negative(
            self.kind, "node_cost_spread", node_cost_spread
        )
        self.service_weight_spread = check_non_negative(
            self.kind, "service_weight_spread", service_weight_spread
        )
        self.extra_service_probability = check_fraction(
            self.kind, "extra_service_probability", extra_service_probability
        )

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "num_services": self.num_services,
            "num_nodes": self.num_nodes,
            "num_profiles": self.num_profiles,
            "profile_size": self.profile_size,
            "edge_probability": self.edge_probability,
            "zipf_alpha": self.zipf_alpha,
            "node_cost_spread": self.node_cost_spread,
            "service_weight_spread": self.service_weight_spread,
            "extra_service_probability": self.extra_service_probability,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def shape(self) -> Optional[Tuple[int, int]]:
        return self.num_nodes, self.num_services

    def _build_environment(self, rng):
        metric = random_graph_metric(
            self.num_nodes, edge_probability=self.edge_probability, rng=rng
        )
        weights = 1.0 + self.service_weight_spread * rng.uniform(
            0.0, 1.0, size=self.num_services
        )
        node_scales = 1.0 + self.node_cost_spread * rng.uniform(
            0.0, 1.0, size=self.num_nodes
        )
        cost = WeightedConcaveCost(weights, point_scales=node_scales, name="service-vm-cost")
        universe = CommodityUniverse(
            self.num_services, names=[f"service-{i}" for i in range(self.num_services)]
        )
        ranks = np.arange(1, self.num_services + 1, dtype=np.float64)
        popularity = 1.0 / np.power(ranks, self.zipf_alpha)
        profiles = [
            universe.sample_subset(self.profile_size, rng=rng, weights=popularity)
            for _ in range(self.num_profiles)
        ]
        env = ScenarioEnvironment(
            metric,
            cost,
            universe,
            name=(
                f"service-network(n={self.num_requests},S={self.num_services},"
                f"nodes={self.num_nodes})"
            ),
        )
        return env, {"profiles": profiles, "popularity": popularity}

    def _stream(self, environment, aux, rng):
        return _ServiceNetworkStream(self, environment, rng, aux)


class _ServiceNetworkStream(ScenarioStream):
    def __init__(self, scenario, environment, rng, aux):
        super().__init__(scenario, environment, rng)
        self._profiles = aux["profiles"]
        self._popularity = aux["popularity"]

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: ServiceNetworkScenario = self._scenario
        node = int(self._rng.integers(0, scenario.num_nodes))
        profile = self._profiles[int(self._rng.integers(0, len(self._profiles)))]
        demand = set(profile)
        if self._rng.random() < scenario.extra_service_probability:
            demand |= self._env.commodities.sample_subset(
                1, rng=self._rng, weights=self._popularity
            )
        return node, frozenset(demand)


# ----------------------------------------------------------------------
# burst
# ----------------------------------------------------------------------
@register_scenario("burst")
class BurstScenario(Scenario):
    """Hotspot arrival clumps: geometric bursts anchored at hotspot points.

    The stream alternates between *bursts* — a geometrically distributed
    number of requests sharing one hotspot neighborhood and one commodity
    bundle — and uniform background requests.  Bursts are the adversarial
    flip side of the random-order discussion in Section 1.2: arrival clumping
    concentrates demand in time exactly where Meyerson-style coin-flip
    algorithms over- or under-open.
    """

    def __init__(
        self,
        *,
        num_requests: Optional[int] = None,
        num_commodities: int,
        num_points: int = 64,
        num_hotspots: int = 4,
        burst_size_mean: float = 16.0,
        locality: int = 4,
        bundle_size: Optional[int] = None,
        background_probability: float = 0.1,
        cost_exponent_x: float = 1.0,
    ) -> None:
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self.num_commodities = check_count(self.kind, "num_commodities", num_commodities)
        self.num_points = check_count(self.kind, "num_points", num_points)
        self.num_hotspots = check_count(self.kind, "num_hotspots", num_hotspots)
        if self.num_hotspots > self.num_points:
            raise param_error(
                self.kind,
                "num_hotspots",
                f"must not exceed num_points={self.num_points}, got {self.num_hotspots}",
            )
        self.burst_size_mean = check_positive(self.kind, "burst_size_mean", burst_size_mean)
        if self.burst_size_mean < 1.0:
            raise param_error(
                self.kind, "burst_size_mean", f"must be >= 1, got {burst_size_mean!r}"
            )
        self.locality = check_count(self.kind, "locality", locality)
        default_bundle = min(self.num_commodities, max(2, self.num_commodities // 2))
        self.bundle_size = (
            default_bundle
            if bundle_size is None
            else check_count(self.kind, "bundle_size", bundle_size)
        )
        if self.bundle_size > self.num_commodities:
            raise param_error(
                self.kind,
                "bundle_size",
                f"must lie in [1, {self.num_commodities}], got {self.bundle_size}",
            )
        self.background_probability = check_fraction(
            self.kind, "background_probability", background_probability
        )
        self.cost_exponent_x = check_non_negative(
            self.kind, "cost_exponent_x", cost_exponent_x
        )

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "num_commodities": self.num_commodities,
            "num_points": self.num_points,
            "num_hotspots": self.num_hotspots,
            "burst_size_mean": self.burst_size_mean,
            "locality": self.locality,
            "bundle_size": self.bundle_size,
            "background_probability": self.background_probability,
            "cost_exponent_x": self.cost_exponent_x,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def shape(self) -> Optional[Tuple[int, int]]:
        return self.num_points, self.num_commodities

    def _build_environment(self, rng):
        metric = random_euclidean_metric(self.num_points, rng=rng)
        hotspot_ids = rng.choice(self.num_points, size=self.num_hotspots, replace=False)
        # Each hotspot's neighborhood: itself plus its `locality` nearest points.
        neighborhoods: List[List[int]] = []
        for hotspot in hotspot_ids:
            row = metric.distances_from(int(hotspot))
            k = min(self.locality + 1, self.num_points)
            nearest = np.argsort(row, kind="stable")[:k]
            neighborhoods.append([int(p) for p in nearest])
        cost = PowerCost(self.num_commodities, self.cost_exponent_x)
        env = ScenarioEnvironment(
            metric,
            cost,
            CommodityUniverse(self.num_commodities),
            name=(
                f"burst(n={self.num_requests},S={self.num_commodities},"
                f"hotspots={self.num_hotspots})"
            ),
        )
        return env, {"neighborhoods": neighborhoods}

    def _stream(self, environment, aux, rng):
        return _BurstStream(self, environment, rng, aux)


class _BurstStream(ScenarioStream):
    def __init__(self, scenario, environment, rng, aux):
        super().__init__(scenario, environment, rng)
        self._neighborhoods: List[List[int]] = aux["neighborhoods"]
        self._burst_remaining = 0
        self._burst_hotspot = 0
        self._burst_bundle: List[int] = []

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: BurstScenario = self._scenario
        if self._burst_remaining <= 0:
            # Start the next burst: hotspot, shared bundle, geometric size.
            self._burst_hotspot = int(self._rng.integers(0, scenario.num_hotspots))
            self._burst_bundle = sorted(
                self._env.commodities.sample_subset(scenario.bundle_size, rng=self._rng)
            )
            self._burst_remaining = int(
                self._rng.geometric(1.0 / scenario.burst_size_mean)
            )
        self._burst_remaining -= 1
        if self._rng.random() < scenario.background_probability:
            point = int(self._rng.integers(0, self._env.num_points))
            size = int(self._rng.integers(1, min(scenario.num_commodities, 4) + 1))
            return point, self._env.commodities.sample_subset(size, rng=self._rng)
        neighborhood = self._neighborhoods[self._burst_hotspot]
        point = int(neighborhood[int(self._rng.integers(0, len(neighborhood)))])
        size = int(self._rng.integers(1, len(self._burst_bundle) + 1))
        chosen = choose_distinct(self._rng, len(self._burst_bundle), size)
        return point, frozenset(self._burst_bundle[i] for i in chosen)

    def _extra_state(self) -> Dict[str, Any]:
        return {
            "burst_remaining": self._burst_remaining,
            "burst_hotspot": self._burst_hotspot,
            "burst_bundle": list(self._burst_bundle),
        }

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        self._burst_remaining = int(extra["burst_remaining"])
        self._burst_hotspot = int(extra["burst_hotspot"])
        self._burst_bundle = [int(e) for e in extra["burst_bundle"]]


# ----------------------------------------------------------------------
# drift
# ----------------------------------------------------------------------
@register_scenario("drift")
class DriftScenario(Scenario):
    """Nonstationary demand: a random-walking cluster center plus a rotating
    commodity window.

    A latent center coordinate random-walks through ``[0, 1]^2`` (reflected
    at the boundary); each request lands on the metric point nearest to the
    center plus Gaussian scatter, and demands a random subset of a contiguous
    commodity window that rotates every ``shift_every`` requests.  Facilities
    opened early are gradually stranded — the structural opposite of the
    clustered workload's fixed planted centers.
    """

    def __init__(
        self,
        *,
        num_requests: Optional[int] = None,
        num_commodities: int,
        num_points: int = 64,
        drift_rate: float = 0.02,
        scatter: float = 0.05,
        window: Optional[int] = None,
        shift_every: int = 32,
        cost_exponent_x: float = 1.0,
    ) -> None:
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self.num_commodities = check_count(self.kind, "num_commodities", num_commodities)
        self.num_points = check_count(self.kind, "num_points", num_points)
        self.drift_rate = check_non_negative(self.kind, "drift_rate", drift_rate)
        self.scatter = check_non_negative(self.kind, "scatter", scatter)
        default_window = min(self.num_commodities, max(2, self.num_commodities // 2))
        self.window = (
            default_window if window is None else check_count(self.kind, "window", window)
        )
        if self.window > self.num_commodities:
            raise param_error(
                self.kind,
                "window",
                f"must lie in [1, {self.num_commodities}], got {self.window}",
            )
        self.shift_every = check_count(self.kind, "shift_every", shift_every)
        self.cost_exponent_x = check_non_negative(
            self.kind, "cost_exponent_x", cost_exponent_x
        )

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "num_commodities": self.num_commodities,
            "num_points": self.num_points,
            "drift_rate": self.drift_rate,
            "scatter": self.scatter,
            "window": self.window,
            "shift_every": self.shift_every,
            "cost_exponent_x": self.cost_exponent_x,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def shape(self) -> Optional[Tuple[int, int]]:
        return self.num_points, self.num_commodities

    def _build_environment(self, rng):
        metric = random_euclidean_metric(self.num_points, rng=rng)
        cost = PowerCost(self.num_commodities, self.cost_exponent_x)
        env = ScenarioEnvironment(
            metric,
            cost,
            CommodityUniverse(self.num_commodities),
            name=(
                f"drift(n={self.num_requests},S={self.num_commodities},"
                f"rate={self.drift_rate:g})"
            ),
        )
        return env, {"coordinates": np.asarray(metric.coordinates, dtype=np.float64)}

    def _stream(self, environment, aux, rng):
        return _DriftStream(self, environment, rng, aux)


class _DriftStream(ScenarioStream):
    def __init__(self, scenario, environment, rng, aux):
        super().__init__(scenario, environment, rng)
        self._coordinates: np.ndarray = aux["coordinates"]
        self._center = np.full(self._coordinates.shape[1], 0.5, dtype=np.float64)
        self._window_offset = 0

    @staticmethod
    def _reflect(values: np.ndarray) -> np.ndarray:
        # Reflect the random walk back into [0, 1] (period-2 triangle wave).
        folded = np.mod(values, 2.0)
        return np.where(folded > 1.0, 2.0 - folded, folded)

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: DriftScenario = self._scenario
        dimension = self._coordinates.shape[1]
        step = self._rng.normal(0.0, scenario.drift_rate, size=dimension)
        self._center = self._reflect(self._center + step)
        target = self._reflect(
            self._center + self._rng.normal(0.0, scenario.scatter, size=dimension)
        )
        point = int(
            np.argmin(np.einsum("ij,ij->i", self._coordinates - target,
                                self._coordinates - target))
        )
        if self._position > 0 and self._position % scenario.shift_every == 0:
            self._window_offset = (self._window_offset + 1) % scenario.num_commodities
        members = [
            (self._window_offset + i) % scenario.num_commodities
            for i in range(scenario.window)
        ]
        size = int(self._rng.integers(1, scenario.window + 1))
        chosen = choose_distinct(self._rng, scenario.window, size)
        return point, frozenset(members[i] for i in chosen)

    def _extra_state(self) -> Dict[str, Any]:
        return {
            "center": [float(c) for c in self._center],
            "window_offset": self._window_offset,
        }

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        self._center = np.asarray(extra["center"], dtype=np.float64)
        self._window_offset = int(extra["window_offset"])
