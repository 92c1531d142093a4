"""Greedy offline heuristic (set-cover flavoured).

Ravi and Sinha's offline O(log |S|) approximation is driven by greedy
set-cover ideas; this solver follows the same spirit without reproducing
their full analysis: it repeatedly opens the candidate facility — a
``(point, configuration)`` pair from
:func:`~repro.algorithms.offline.common.candidate_configurations` — with the
best ratio of (opening cost + new connection cost) to newly covered
(request, commodity) pairs, until every pair is covered, then computes the
optimal assignment for the chosen facilities and drops facilities no request
uses.

Each round computes the whole ``(points × configurations)`` ratio table from
arrays.  Built once per solve: the demanded (request, commodity) pairs,
which configuration covers which pair, the opening cost of every candidate
and the request-to-point distances.  Carried across rounds: the uncovered
pairs, and the distance each request still pays to each point (zeroed once
the request connects there).  A configuration's connection cost at every
point sums that distance over the requests it covers, in request order;
:func:`_connection_costs` adds the rows left to right, as a Python loop
would (``block.sum(axis=0)`` does not: numpy sums a one-column block
pairwise).  The table is then scanned point-major, then by configuration,
with the order-dependent ``ratio < best - 1e-15`` rule, so the chosen
facilities are bit-identical to a plain loop over every candidate — which
``tests/oracles.py`` keeps as the test oracle.

The result is an upper bound on OPT; on the small instances where the exact
brute force is tractable the test suite checks the two against each other.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import OfflineResult, OfflineSolver
from repro.algorithms.offline.common import candidate_configurations, solution_from_specs
from repro.core.instance import Instance
from repro.exceptions import AlgorithmError
from repro.trace.clock import wall_now

__all__ = ["GreedyOfflineSolver"]

Spec = Tuple[int, FrozenSet[int]]


def _connection_costs(block: np.ndarray) -> np.ndarray:
    """Column sums of a ``(requests × points)`` block, each added top to bottom.

    ``np.add.accumulate`` adds row after row, like ``+=`` in a loop over the
    requests; ``block.sum(axis=0)`` sums a one-column block pairwise instead.
    """
    return np.add.accumulate(block, axis=0)[-1]


class GreedyOfflineSolver(OfflineSolver):
    """Greedy facility-opening heuristic for the offline MFLP."""

    name = "offline-greedy"

    def __init__(self, *, candidate_points: Optional[List[int]] = None) -> None:
        self._candidate_points = candidate_points

    def solve(self, instance: Instance) -> OfflineResult:
        start = wall_now()
        requests = instance.requests
        if len(requests) == 0:
            raise AlgorithmError("cannot solve an instance with no requests")

        chosen = self._choose(instance)
        solution, total = solution_from_specs(instance, chosen)
        # Drop facilities that the optimal assignment does not use and
        # re-evaluate; this only ever improves the solution.
        used_ids = set()
        for assignment in solution.assignments:
            used_ids |= assignment.facility_ids()
        pruned = [chosen[i] for i in range(len(chosen)) if i in used_ids]
        if pruned and len(pruned) < len(chosen):
            pruned_solution, pruned_total = solution_from_specs(instance, pruned)
            if pruned_total <= total:
                solution, total = pruned_solution, pruned_total

        runtime = wall_now() - start
        breakdown = solution.cost_breakdown(requests)
        return OfflineResult(
            solver=self.name,
            instance_name=instance.name,
            solution=solution,
            total_cost=total,
            opening_cost=breakdown.opening,
            connection_cost=breakdown.connection,
            runtime_seconds=runtime,
            is_optimal=False,
        )

    def _choose(self, instance: Instance) -> List[Spec]:
        """The greedy rounds: every facility opened, in order, before pruning."""
        requests = instance.requests
        metric = instance.metric
        cost_function = instance.cost_function

        points = (
            list(self._candidate_points)
            if self._candidate_points is not None
            else sorted({r.point for r in requests})
        )
        configurations = candidate_configurations(instance)

        # Distances from every request to every candidate point, one metric
        # call per distinct request point.  Built before the opening costs, so
        # that out-of-range candidate points are reported by the metric.
        distinct, row_of = np.unique([r.point for r in requests], return_inverse=True)
        rows = [metric.distances_between(int(point), points) for point in distinct]
        unpaid = np.vstack(rows)[row_of]
        opening = np.array(
            [[cost_function.cost(point, config) for config in configurations] for point in points],
            dtype=np.float64,
        ).reshape(len(points), len(configurations))

        # The demanded (request, commodity) pairs, grouped by request, and
        # which configuration covers which pair.
        demands = [sorted(request.commodities) for request in requests]
        pair_commodity = np.array([e for demand in demands for e in demand], dtype=np.intp)
        first_pair = np.cumsum([0] + [len(demand) for demand in demands[:-1]])
        covers = np.array([np.isin(pair_commodity, sorted(c)) for c in configurations])

        uncovered = np.ones(len(pair_commodity), dtype=bool)
        ratios = np.empty((len(points), len(configurations)), dtype=np.float64)
        chosen: List[Spec] = []
        while uncovered.any():
            covered = covers & uncovered
            counts = covered.sum(axis=1).tolist()
            covered_rows = np.logical_or.reduceat(covered, first_pair, axis=1)
            live = [c for c, count in enumerate(counts) if count]
            for c in live:
                connection = _connection_costs(unpaid[covered_rows[c]])
                ratios[:, c] = (opening[:, c] + connection) / counts[c]

            # Point-major, then by configuration; a later candidate must beat
            # the best so far by more than 1e-15, so ties go to the first.
            table = ratios.tolist()
            best: Optional[Tuple[float, int, int]] = None
            for point_index in range(len(points)):
                row = table[point_index]
                for c in live:
                    if best is None or row[c] < best[0] - 1e-15:
                        best = (row[c], point_index, c)
            if best is None:
                raise AlgorithmError("greedy solver could not cover all demands")
            _, point_index, c = best
            chosen.append((points[point_index], configurations[c]))
            uncovered &= ~covered[c]
            # A request connected to this point does not pay again when another
            # commodity is covered from it, mirroring the distinct-facility
            # connection cost.  Only the chosen column is zeroed: a later copy
            # of a repeated candidate point never has a lower ratio than the
            # first copy, which wins ties.
            unpaid[covered_rows[c], point_index] = 0.0
        return chosen
