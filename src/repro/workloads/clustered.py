"""Clustered workloads with planted optimal centers.

The analysis of RAND-OMFLP (Section 4.2 of the paper) reasons about *optimal
centers*: facilities of the offline optimum together with the requests they
serve.  This generator produces instances with exactly that structure made
explicit — a set of cluster centers, each with a commodity bundle, and
requests that appear near their center demanding subsets of its bundle — and
returns the planted facility set so experiments can use it as an offline
reference (an upper bound on OPT that is near-tight for well-separated
clusters).
"""

from __future__ import annotations

from typing import Optional

from repro.costs.base import FacilityCostFunction
from repro.utils.rng import RandomState
from repro.workloads.base import GeneratedWorkload, draw_workload

__all__ = ["clustered_workload"]


def clustered_workload(
    *,
    num_requests: int,
    num_commodities: int,
    num_clusters: int = 4,
    points_per_cluster: int = 12,
    cluster_radius: float = 0.05,
    side: float = 1.0,
    bundle_size: Optional[int] = None,
    demand_size: Optional[int] = None,
    cost_function: Optional[FacilityCostFunction] = None,
    cost_exponent_x: float = 1.0,
    cost_scale: float = 1.0,
    rng: RandomState = None,
) -> GeneratedWorkload:
    """Requests clustered around planted centers with per-center commodity bundles.

    The eager form of the ``clustered`` scenario
    (:class:`~repro.scenarios.generators.ClusteredScenario`), drawn from
    ``rng`` alone.  The metric is Euclidean (the plane): each cluster has a
    center drawn uniformly from ``[0, side]^2`` and ``points_per_cluster``
    candidate points within ``cluster_radius`` of it.  Each cluster owns a
    commodity *bundle* of size ``bundle_size`` (default
    ``min(|S|, max(2, |S| // num_clusters))``) and every request located in
    the cluster demands a random subset of the bundle of size ``demand_size``
    (default: between 1 and the bundle size).  ``cost_function`` replaces the
    default :class:`~repro.costs.count_based.PowerCost`.

    The planted solution opens one facility per cluster at the center point
    offering the full bundle.
    """
    return draw_workload(
        "clustered",
        rng=rng,
        cost_function=cost_function,
        num_requests=num_requests,
        num_commodities=num_commodities,
        num_clusters=num_clusters,
        points_per_cluster=points_per_cluster,
        cluster_radius=cluster_radius,
        side=side,
        bundle_size=bundle_size,
        demand_size=demand_size,
        cost_exponent_x=cost_exponent_x,
        cost_scale=cost_scale,
    )
