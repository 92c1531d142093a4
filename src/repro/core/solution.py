"""Complete OMFLP solutions and their cost accounting.

The objective value of a solution is

``sum over opened facilities of f^σ_m  +  sum over requests of the connection
cost of their assignment``

exactly as in the ILP of Section 1.1.  :class:`Solution` performs this
accounting, provides the small/large cost breakdown used in the analysis and
validates feasibility.

A solution frozen from an online run takes its assignments lazily: the
online state logs them as arrays, and the ``Assignment`` objects are built
on the first access that needs them.  Finalizing a session reads only the
facilities (:meth:`Solution.opening_split`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.facility import Facility
from repro.core.requests import RequestSequence
from repro.exceptions import InfeasibleSolutionError
from repro.metric.base import MetricSpace

__all__ = ["Solution", "CostBreakdown"]


@dataclass(frozen=True)
class CostBreakdown:
    """Decomposition of a solution's total cost.

    ``small``/``large`` follow the paper's terminology: a *large* facility
    offers all of ``S``; every other facility is *small* (the algorithms only
    ever open singleton-configuration small facilities, but offline references
    may open intermediate sizes, which are counted as small here).
    """

    opening_small: float
    opening_large: float
    connection: float

    @property
    def opening(self) -> float:
        return self.opening_small + self.opening_large

    @property
    def total(self) -> float:
        return self.opening + self.connection


class Solution:
    """A set of opened facilities plus one assignment per request.

    ``assignments`` is iterated once, on the first access that needs the
    assignments; facility-only queries never iterate it.
    """

    def __init__(
        self,
        metric: MetricSpace,
        num_commodities: int,
        facilities: Iterable[Facility],
        assignments: Iterable[Assignment],
    ) -> None:
        self._metric = metric
        self._num_commodities = int(num_commodities)
        self._facilities: Dict[int, Facility] = {f.id: f for f in facilities}
        self._pending: Optional[Iterable[Assignment]] = assignments
        self._by_request: Dict[int, Assignment] = {}

    @property
    def _assignments(self) -> Dict[int, Assignment]:
        if self._pending is not None:
            self._by_request = {a.request_index: a for a in self._pending}
            self._pending = None
        return self._by_request

    # ------------------------------------------------------------------
    @property
    def facilities(self) -> List[Facility]:
        return [self._facilities[i] for i in sorted(self._facilities)]

    @property
    def assignments(self) -> List[Assignment]:
        assignments = self._assignments
        return [assignments[i] for i in sorted(assignments)]

    def facility(self, facility_id: int) -> Facility:
        return self._facilities[facility_id]

    def assignment_for(self, request_index: int) -> Assignment:
        return self._assignments[request_index]

    def num_facilities(self) -> int:
        return len(self._facilities)

    def num_large_facilities(self) -> int:
        full = frozenset(range(self._num_commodities))
        return sum(1 for f in self._facilities.values() if f.configuration == full)

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def opening_cost(self) -> float:
        return sum(f.opening_cost for f in self._facilities.values())

    def opening_split(self) -> Tuple[float, float]:
        """``(small, large)`` opening cost, each summed in facility-id order.

        Plain ``sum``, so an empty side is the integer ``0``.
        """
        full = frozenset(range(self._num_commodities))
        opening_small = sum(
            f.opening_cost for f in self._facilities.values() if f.configuration != full
        )
        opening_large = sum(
            f.opening_cost for f in self._facilities.values() if f.configuration == full
        )
        return opening_small, opening_large

    def connection_cost(self, requests: RequestSequence) -> float:
        assignments = self._assignments
        total = 0.0
        for request in requests:
            assignment = assignments.get(request.index)
            if assignment is None:
                raise InfeasibleSolutionError(f"request {request.index} has no assignment")
            total += assignment.connection_cost(request, self._facilities, self._metric)
        return total

    def total_cost(self, requests: RequestSequence) -> float:
        return self.opening_cost() + self.connection_cost(requests)

    def cost_breakdown(self, requests: RequestSequence) -> CostBreakdown:
        opening_small, opening_large = self.opening_split()
        return CostBreakdown(
            opening_small=opening_small,
            opening_large=opening_large,
            connection=self.connection_cost(requests),
        )

    # ------------------------------------------------------------------
    def validate(self, requests: RequestSequence) -> None:
        """Raise :class:`InfeasibleSolutionError` unless the solution is feasible."""
        assignments = self._assignments
        for request in requests:
            assignment = assignments.get(request.index)
            if assignment is None:
                raise InfeasibleSolutionError(f"request {request.index} has no assignment")
            assignment.validate(request, self._facilities)
        for facility in self._facilities.values():
            if not 0 <= facility.point < self._metric.num_points:
                raise InfeasibleSolutionError(
                    f"facility {facility.id} is located at unknown point {facility.point}"
                )
            for commodity in facility.configuration:
                if not 0 <= commodity < self._num_commodities:
                    raise InfeasibleSolutionError(
                        f"facility {facility.id} offers unknown commodity {commodity}"
                    )

    def summary(self, requests: RequestSequence) -> str:
        """Human-readable one-paragraph summary used by the examples."""
        breakdown = self.cost_breakdown(requests)
        return (
            f"{len(self._facilities)} facilities "
            f"({self.num_large_facilities()} large), "
            f"opening cost {breakdown.opening:.4f} "
            f"(small {breakdown.opening_small:.4f} / large {breakdown.opening_large:.4f}), "
            f"connection cost {breakdown.connection:.4f}, "
            f"total {breakdown.total:.4f}"
        )
