"""Shared building blocks of the offline solvers.

* :func:`optimal_assignment` — given a fixed set of open facilities, compute
  the cheapest feasible connection of one request (exact, by dynamic
  programming over subsets of the request's demand set).  This is the inner
  problem every offline solver needs: the connection cost of a request is the
  sum of distances to the *distinct* facilities it uses, so choosing which
  facilities to connect to is itself a small weighted set cover.
* :func:`evaluate_facility_specs` — turn a list of ``(point, configuration)``
  facility specifications into a full :class:`~repro.core.solution.Solution`
  with optimal assignments.
* :func:`candidate_configurations` — the configuration family (singletons,
  distinct requested sets, the full set) that the greedy and local-search
  solvers draw their candidate facilities from.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.facility import Facility
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.solution import Solution
from repro.exceptions import InfeasibleSolutionError
from repro.metric.base import MetricSpace

__all__ = [
    "optimal_assignment",
    "evaluate_facility_specs",
    "candidate_configurations",
    "solution_from_specs",
]

#: Largest demand-set size for which the exact subset DP is attempted.
_MAX_DEMAND_FOR_DP = 20


def optimal_assignment(
    metric: MetricSpace,
    request: Request,
    facilities: Sequence[Facility],
) -> Tuple[Assignment, float]:
    """Cheapest feasible connection of ``request`` to the given open facilities.

    Uses dynamic programming over subsets of the request's demand set: state
    ``mask`` = commodities already covered, transition = connect to one more
    facility (paying its distance once, regardless of how many commodities it
    covers).  Exact for ``|s_r| <= 20``; raises for larger demand sets (no
    workload in this repository produces them).

    Raises
    ------
    InfeasibleSolutionError
        If some demanded commodity is offered by no facility.
    """
    demanded = sorted(request.commodities)
    k = len(demanded)
    if k > _MAX_DEMAND_FOR_DP:
        raise InfeasibleSolutionError(
            f"request {request.index} demands {k} commodities; the exact assignment DP "
            f"supports at most {_MAX_DEMAND_FOR_DP}"
        )
    index_of = {commodity: i for i, commodity in enumerate(demanded)}
    full_mask = (1 << k) - 1

    useful: List[Tuple[Facility, int, float]] = []
    for facility in facilities:
        mask = 0
        for commodity in facility.configuration & request.commodities:
            mask |= 1 << index_of[commodity]
        if mask:
            useful.append((facility, mask, metric.distance(request.point, facility.point)))
    coverable = 0
    for _, mask, _ in useful:
        coverable |= mask
    if coverable != full_mask:
        missing = [demanded[i] for i in range(k) if not (coverable >> i) & 1]
        raise InfeasibleSolutionError(
            f"request {request.index}: commodities {missing} are offered by no open facility"
        )

    INF = float("inf")
    dp = np.full(1 << k, INF, dtype=np.float64)
    dp[0] = 0.0
    choice: List[Optional[Tuple[int, int]]] = [None] * (1 << k)  # mask -> (facility idx, prev mask)
    # Plain forward DP over masks: since adding a facility only adds bits,
    # iterating masks in increasing numeric order is sufficient (the previous
    # mask is always numerically smaller than the new one).
    for mask in range(1 << k):
        if dp[mask] == INF:
            continue
        for idx, (facility, fmask, distance) in enumerate(useful):
            new_mask = mask | fmask
            if new_mask == mask:
                continue
            new_cost = dp[mask] + distance
            if new_cost < dp[new_mask] - 1e-15:
                dp[new_mask] = new_cost
                choice[new_mask] = (idx, mask)

    if dp[full_mask] == INF:  # pragma: no cover - excluded by the coverable check
        raise InfeasibleSolutionError(f"request {request.index} cannot be covered")

    # Reconstruct the chosen facilities and build the assignment.
    chosen: List[Tuple[Facility, int, float]] = []
    mask = full_mask
    while mask:
        entry = choice[mask]
        if entry is None:
            break
        idx, previous = entry
        chosen.append(useful[idx])
        mask = previous
    assignment = Assignment(request_index=request.index)
    for commodity in demanded:
        best_facility = None
        best_distance = INF
        for facility, _, distance in chosen:
            if facility.offers(commodity) and distance < best_distance:
                best_facility, best_distance = facility, distance
        if best_facility is None:  # pragma: no cover - defensive
            raise InfeasibleSolutionError(
                f"request {request.index}: reconstruction lost commodity {commodity}"
            )
        assignment.assign(commodity, best_facility.id)
    return assignment, float(dp[full_mask])


def solution_from_specs(
    instance: Instance, specs: Sequence[Tuple[int, Iterable[int]]]
) -> Tuple[Solution, float]:
    """Build a solution from ``(point, configuration)`` facility specs.

    Facilities are opened exactly as specified (duplicates allowed, matching
    the model's "multiple facilities on the same point"); every request is
    connected optimally.  Returns the solution and its total cost.
    """
    facilities: List[Facility] = []
    for point, configuration in specs:
        config = instance.cost_function.normalize_configuration(configuration)
        facilities.append(
            Facility(
                id=len(facilities),
                point=int(point),
                configuration=config,
                opening_cost=instance.cost_function.cost(int(point), config),
            )
        )
    assignments: List[Assignment] = []
    connection_total = 0.0
    for request in instance.requests:
        assignment, cost = optimal_assignment(instance.metric, request, facilities)
        assignments.append(assignment)
        connection_total += cost
    solution = Solution(instance.metric, instance.num_commodities, facilities, assignments)
    total = sum(f.opening_cost for f in facilities) + connection_total
    return solution, float(total)


def evaluate_facility_specs(
    instance: Instance, specs: Sequence[Tuple[int, Iterable[int]]]
) -> float:
    """Total cost of the cheapest solution that opens exactly the given facilities."""
    _, total = solution_from_specs(instance, specs)
    return total


def candidate_configurations(instance: Instance) -> List[FrozenSet[int]]:
    """Configuration family for the heuristic offline solvers.

    Includes every singleton of a requested commodity, every distinct demand
    set occurring in the instance, and the full set ``S``.  (By subadditivity
    the optimum never benefits from opening two facilities at the same point,
    but it may well use configurations outside this family; the heuristics
    trade that completeness for tractability, and the brute-force solver is
    the exact reference on small instances.)
    """
    used = instance.requests.commodities_used()
    family = {frozenset((e,)) for e in used}
    for request in instance.requests:
        family.add(frozenset(request.commodities))
    family.add(instance.cost_function.full_set)
    return sorted(family, key=lambda c: (len(c), sorted(c)))
