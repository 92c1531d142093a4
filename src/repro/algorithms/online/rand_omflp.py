"""RAND-OMFLP — the randomized algorithm of Section 4 (Algorithm 2).

When a request ``r`` with commodity set ``s_r`` arrives, the algorithm
computes two hypothetical connection budgets:

* ``X(r) = sum_{e in s_r} X(r, e)`` where ``X(r, e) = min{ d(F(e), r),
  min_i ( C^{{e}}_i + d(C^{{e}}_i, r) ) }`` — the cheapest way to serve each
  commodity individually with small facilities;
* ``Z(r) = min{ d(F̂, r), min_i ( C^S_i + d(C^S_i, r) ) }`` — the cheapest way
  to serve the whole request with one large facility;

and uses ``min{X(r), Z(r)}`` as the request's budget.  For every facility cost
class ``i`` (facility costs rounded down to powers of two, Section 4.1) it
then flips independent coins:

* a small facility of class ``i`` for commodity ``e`` is opened at the point
  of class ``<= i`` closest to ``r`` with probability
  ``(d(C^{{e}}_{i-1}, r) - d(C^{{e}}_i, r)) / C^{{e}}_i * X(r, e) / X(r)``;
* a large facility of class ``i`` is opened at the point of class ``<= i``
  closest to ``r`` with probability
  ``(d(C^S_{i-1}, r) - d(C^S_i, r)) / C^S_i``;

with ``d(C^τ_0, r) := min{Z(r), X(r)}`` in both cases.  These probabilities
make the expected assignment cost, the expected small-facility cost and the
expected large-facility cost of the request equal (Lemma 20), which drives the
O(√|S|·log n / log log n) bound of Theorem 19.

After the coin flips the request is connected in the cheapest feasible way
against the now-open facilities (per-commodity to nearest facilities, or all
commodities to one large facility — Figure 3 of the paper illustrates exactly
this choice).  If some demanded commodity is offered nowhere, the cheapest
small-facility option realizing ``X(r, e)`` is opened deterministically as a
feasibility fallback (DESIGN.md §4.2); this only affects constants.

The cost classes of each configuration and their per-class distances
``d(C^τ_i, ·)`` are pure functions of the metric and the cost, so they come
from the instance's tables (:mod:`repro.accel.tables`): one
:class:`~repro.costs.classes.CostClassIndex` per configuration, whose
memoized columns answer a query in O(1) after the first from a point instead
of an O(n) scan per class per request.  Another run on the same instance,
such as a reloaded service session, reads the tables the earlier runs filled.
So the algorithm keeps no per-run state of its own, and its snapshot is the
empty one of :class:`~repro.algorithms.base.OnlineAlgorithm`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.accel.tables import Configuration, EnvironmentTables
from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.core.trace import CoinFlipEvent
from repro.costs.classes import CostClassIndex
from repro.exceptions import AlgorithmError

__all__ = ["RandOMFLPAlgorithm"]


class RandOMFLPAlgorithm(OnlineAlgorithm):
    """Randomized Meyerson-style online algorithm for the OMFLP (Algorithm 2)."""

    randomized = True

    def __init__(self) -> None:
        self.name = "rand-omflp"
        self._instance: Optional[Instance] = None
        self._tables: Optional[EnvironmentTables] = None
        self._full_set: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        self._instance = instance
        # The facility cost classes are static (costs never change), so the
        # instance's tables build each configuration's classes once, lazily:
        # a run may never see some commodities.
        self._tables = instance.tables
        self._full_set = instance.cost_function.full_set

    def _classes_for(self, configuration: Configuration) -> CostClassIndex:
        """The cost classes of a commodity's ``(e,)`` or of the full set ``S``."""
        return self._tables.cost_classes(configuration)

    # ------------------------------------------------------------------
    # Budgets (Section 4.1)
    # ------------------------------------------------------------------
    def _small_budget(self, state: OnlineState, request: Request, commodity: int) -> float:
        """``X(r, e)``."""
        existing = state.distance_to_nearest(commodity, request.point)
        _, cheapest_open = self._classes_for((commodity,)).cheapest_open_option(request.point)
        return min(existing, cheapest_open)

    def _large_budget(self, state: OnlineState, request: Request) -> float:
        """``Z(r)``."""
        existing = state.distance_to_nearest_large(request.point)
        _, cheapest_open = self._classes_for(self._full_set).cheapest_open_option(request.point)
        return min(existing, cheapest_open)

    # ------------------------------------------------------------------
    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before process()")
        point = request.point
        commodities = sorted(request.commodities)

        small_budgets = {e: self._small_budget(state, request, e) for e in commodities}
        x_total = float(sum(small_budgets.values()))
        z_total = self._large_budget(state, request)
        budget = min(x_total, z_total)

        # ----- coin flips for small facilities -------------------------------
        for e in commodities:
            share = (small_budgets[e] / x_total) if x_total > 0 else (1.0 / len(commodities))
            classes = self._classes_for((e,))
            previous_distance = budget
            for index, (value, distance_i) in enumerate(
                zip(classes.values, classes.distances(point)), start=1
            ):
                increment = previous_distance - distance_i
                previous_distance = distance_i
                if value <= 0:
                    probability = 1.0 if increment > 0 else 0.0
                else:
                    probability = min(max(increment / value, 0.0), 1.0) * share
                success = probability > 0 and rng.random() < probability
                if state.trace.enabled:
                    state.trace.record(
                        CoinFlipEvent(
                            request_index=request.index,
                            kind="small",
                            commodity=e,
                            class_index=index,
                            probability=probability,
                            success=success,
                        )
                    )
                if success:
                    target, _ = classes.nearest_point_of_class(index, point)
                    state.open_facility(request, target, (e,))

        # ----- coin flips for the large facility -----------------------------
        large = self._classes_for(self._full_set)
        previous_distance = budget
        for index, (value, distance_i) in enumerate(
            zip(large.values, large.distances(point)), start=1
        ):
            increment = previous_distance - distance_i
            previous_distance = distance_i
            if value <= 0:
                probability = 1.0 if increment > 0 else 0.0
            else:
                probability = min(max(increment / value, 0.0), 1.0)
            success = probability > 0 and rng.random() < probability
            if state.trace.enabled:
                state.trace.record(
                    CoinFlipEvent(
                        request_index=request.index,
                        kind="large",
                        commodity=None,
                        class_index=index,
                        probability=probability,
                        success=success,
                    )
                )
            if success:
                target, _ = large.nearest_point_of_class(index, point)
                state.open_facility(request, target, self._full_set)

        # ----- feasibility fallback ------------------------------------------
        for e in commodities:
            if state.distance_to_nearest(e, point) == float("inf"):
                classes = self._classes_for((e,))
                best_index, _ = classes.cheapest_open_option(point)
                target, _ = classes.nearest_point_of_class(best_index, point)
                state.open_facility(request, target, (e,))

        # ----- connect the request in the cheapest feasible way --------------
        assignment = self._cheapest_assignment(state, request)
        state.record_assignment(request, assignment)

    # ------------------------------------------------------------------
    def _cheapest_assignment(self, state: OnlineState, request: Request) -> Assignment:
        """Cheapest of: per-commodity nearest facilities vs one large facility."""
        commodities = sorted(request.commodities)
        per_commodity: Dict[int, int] = {}
        distance_of: Dict[int, float] = {}
        for e in commodities:
            entry = state.nearest_offering(e, request.point)
            if entry is None:  # pragma: no cover - prevented by the fallback above
                raise AlgorithmError(f"no open facility offers commodity {e}")
            facility, distance = entry
            per_commodity[e] = facility.id
            # nearest_offering's distance is exactly d(r, facility.point), so
            # the connection cost needs no O(n) metric.distance row lookups.
            distance_of[facility.id] = distance
        # Summed in sorted-facility-id order: float addition is not
        # associative, so reducing in set (hash) order would make the cost's
        # last bits — and every equivalence/content hash built on them —
        # depend on the process's hash seed.
        per_commodity_cost = float(
            sum(distance_of[fid] for fid in sorted(set(per_commodity.values())))
        )

        large_entry = state.nearest_large(request.point)
        assignment = Assignment(request_index=request.index)
        if large_entry is not None and large_entry[1] <= per_commodity_cost:
            facility, _ = large_entry
            for e in commodities:
                assignment.assign(e, facility.id)
        else:
            for e, fid in per_commodity.items():
                assignment.assign(e, fid)
        return assignment
