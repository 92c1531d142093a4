"""Evaluate a planted facility set.

The clustered generator (the ``clustered`` scenario, or eagerly
:func:`~repro.workloads.clustered.clustered_workload`) draws requests around a
known set of "optimal centers" (the paper's term in the RAND-OMFLP analysis,
Section 4.2) and reports the facilities a clairvoyant provider would open.
Evaluating that planted facility set — with optimal assignments — yields a
natural upper bound on OPT that is tight enough for the scaling experiments
while remaining cheap to compute at any size.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.algorithms.base import OfflineResult, OfflineSolver
from repro.algorithms.offline.common import solution_from_specs
from repro.core.instance import Instance
from repro.exceptions import AlgorithmError
from repro.trace.clock import wall_now

__all__ = ["PlantedSolver"]


class PlantedSolver(OfflineSolver):
    """Offline reference that opens exactly a supplied facility set."""

    name = "planted"

    def __init__(self, facility_specs: Sequence[Tuple[int, Iterable[int]]]) -> None:
        if not facility_specs:
            raise AlgorithmError("the planted facility set must not be empty")
        self._specs = [(int(point), frozenset(int(e) for e in config)) for point, config in facility_specs]

    @property
    def facility_specs(self) -> List[Tuple[int, FrozenSet[int]]]:
        return list(self._specs)

    def solve(self, instance: Instance) -> OfflineResult:
        start = wall_now()
        solution, total = solution_from_specs(instance, self._specs)
        runtime = wall_now() - start
        breakdown = solution.cost_breakdown(instance.requests)
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
