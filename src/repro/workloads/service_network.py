"""The introduction's service-provider scenario as a workload.

Section 1 of the paper motivates the OMFLP with a provider of services in a
network infrastructure: clients appear over time at network locations and ask
for subsets of the offered services; instantiating a set of services in one
virtual machine costs less than instantiating them separately, and talking to
one nearby node offering several requested services is cheaper than talking
to many.

This generator realizes that story end to end:

* the metric is the shortest-path metric of a random connected network
  (:class:`~repro.metric.graph.GraphMetric`);
* the facility cost is a concave function of the total "size" of the bundled
  services, scaled per node (some nodes are cheaper to provision than others)
  — a :class:`~repro.costs.general.WeightedConcaveCost`;
* clients request service bundles drawn from Zipf-skewed popularity, with a
  tunable number of distinct bundle "profiles" (think: web stack, analytics
  stack, ...) so that co-location opportunities exist.
"""

from __future__ import annotations

from repro.utils.rng import RandomState
from repro.workloads.base import GeneratedWorkload, draw_workload

__all__ = ["service_network_workload"]


def service_network_workload(
    *,
    num_requests: int,
    num_services: int,
    num_nodes: int = 48,
    num_profiles: int = 6,
    profile_size: int = 3,
    edge_probability: float = 0.1,
    zipf_alpha: float = 1.1,
    node_cost_spread: float = 0.5,
    service_weight_spread: float = 0.0,
    rng: RandomState = None,
) -> GeneratedWorkload:
    """Clients requesting service bundles on a random network.

    The eager form of the ``service-network`` scenario
    (:class:`~repro.scenarios.generators.ServiceNetworkScenario`), drawn from
    ``rng`` alone.

    Parameters
    ----------
    num_profiles, profile_size:
        Number of distinct bundle profiles and their size; each client
        requests one profile (plus, with probability 1/4, an extra popular
        service).
    node_cost_spread:
        Relative spread of per-node provisioning cost multipliers.
    service_weight_spread:
        Relative spread of service sizes; ``0`` keeps all services equal,
        which guarantees Condition 1 (heavier spreads model the "heavy
        commodity" regime of the closing remarks).
    """
    return draw_workload(
        "service-network",
        rng=rng,
        num_requests=num_requests,
        num_services=num_services,
        num_nodes=num_nodes,
        num_profiles=num_profiles,
        profile_size=profile_size,
        edge_probability=edge_probability,
        zipf_alpha=zipf_alpha,
        node_cost_spread=node_cost_spread,
        service_weight_spread=service_weight_spread,
    )
