"""Workloads with Zipf-distributed commodity popularity.

Real service demand is heavily skewed: a few services are requested by almost
every client while the long tail is rarely needed.  This generator draws each
request's demand set without replacement proportionally to Zipf weights
``1 / rank^alpha``, producing instances where a handful of commodities appear
in most requests — the regime where sharing large facilities pays off most.
"""

from __future__ import annotations

from typing import Optional

from repro.utils.rng import RandomState
from repro.workloads.base import GeneratedWorkload, draw_workload

__all__ = ["zipf_workload"]


def zipf_workload(
    *,
    num_requests: int,
    num_commodities: int,
    num_points: int = 64,
    zipf_alpha: float = 1.2,
    min_demand: int = 1,
    max_demand: Optional[int] = None,
    cost_exponent_x: float = 1.0,
    rng: RandomState = None,
) -> GeneratedWorkload:
    """Uniform request locations, Zipf-skewed commodity demand.

    The eager form of the ``zipf`` scenario
    (:class:`~repro.scenarios.generators.ZipfScenario`), drawn from ``rng``
    alone.
    """
    return draw_workload(
        "zipf",
        rng=rng,
        num_requests=num_requests,
        num_commodities=num_commodities,
        num_points=num_points,
        zipf_alpha=zipf_alpha,
        min_demand=min_demand,
        max_demand=max_demand,
        cost_exponent_x=cost_exponent_x,
    )
