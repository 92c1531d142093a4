"""Uniformly random workloads."""

from __future__ import annotations

from typing import Optional

from repro.costs.base import FacilityCostFunction
from repro.utils.rng import RandomState
from repro.workloads.base import GeneratedWorkload, draw_workload

__all__ = ["uniform_workload"]


def uniform_workload(
    *,
    num_requests: int,
    num_commodities: int,
    num_points: int = 64,
    metric_kind: str = "euclidean",
    cost_function: Optional[FacilityCostFunction] = None,
    cost_exponent_x: float = 1.0,
    cost_scale: float = 1.0,
    min_demand: int = 1,
    max_demand: Optional[int] = None,
    rng: RandomState = None,
) -> GeneratedWorkload:
    """Requests at uniformly random points with uniformly random demand sets.

    The eager form of the ``uniform`` scenario
    (:class:`~repro.scenarios.generators.UniformScenario`), drawn from ``rng``
    alone.

    Parameters
    ----------
    num_requests, num_commodities, num_points:
        Instance dimensions ``n``, ``|S|``, ``|M|``.
    metric_kind:
        ``"euclidean"`` (random points in the unit square) or ``"line"``.
    cost_function / cost_exponent_x / cost_scale:
        Either an explicit cost function or a
        :class:`~repro.costs.count_based.PowerCost` with the given class-``C``
        exponent and scale.
    min_demand, max_demand:
        Each request demands a uniformly random number of commodities in
        ``[min_demand, max_demand]`` (default upper bound: ``min(|S|, 4)``).
    """
    return draw_workload(
        "uniform",
        rng=rng,
        cost_function=cost_function,
        num_requests=num_requests,
        num_commodities=num_commodities,
        num_points=num_points,
        metric_kind=metric_kind,
        cost_exponent_x=cost_exponent_x,
        cost_scale=cost_scale,
        min_demand=min_demand,
        max_demand=max_demand,
    )
