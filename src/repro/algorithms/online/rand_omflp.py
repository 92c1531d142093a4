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

The static per-class distances ``d(C^τ_i, ·)`` come from memoized
:class:`~repro.accel.classes.ClassDistanceIndex` columns (O(1) per query
after the first from a point) instead of an O(n) scan per class per request.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.accel.classes import ClassDistanceIndex
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
        self._small_classes: Dict[int, CostClassIndex] = {}
        self._large_classes: Optional[CostClassIndex] = None
        self._small_accel: Dict[int, ClassDistanceIndex] = {}
        self._large_accel: Optional[ClassDistanceIndex] = None

    # ------------------------------------------------------------------
    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        self._instance = instance
        # The facility cost classes are static (costs never change), so they
        # are built once per run; singleton classes are built lazily because a
        # run may never see some commodities.
        self._small_classes = {}
        self._small_accel = {}
        self._large_classes = CostClassIndex(
            instance.metric, instance.cost_function, instance.cost_function.full_set
        )
        self._large_accel = ClassDistanceIndex.from_cost_index(
            instance.metric, self._large_classes
        )

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """RAND-OMFLP carries no per-run decision state of its own.

        Every attribute built after ``prepare`` (`_small_classes`,
        `_small_accel` and their memo caches) is a pure function of the static
        instance; the run's decisions live entirely in the shared
        :class:`OnlineState` and the RNG stream, both captured by the session
        snapshot.  The snapshot is therefore empty.
        """
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        return {}

    def load_state_dict(self, state) -> None:
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        if state:
            raise AlgorithmError(
                f"rand-omflp snapshots are empty, got keys {sorted(state)}"
            )

    def _classes_for(self, commodity: int) -> CostClassIndex:
        index = self._small_classes.get(commodity)
        if index is None:
            index = CostClassIndex(
                self._instance.metric, self._instance.cost_function, (commodity,)
            )
            self._small_classes[commodity] = index
        return index

    def _provider_for(self, commodity: int) -> ClassDistanceIndex:
        """Distance queries (``distance_to_class`` / ``nearest_point_of_class``
        / ``cheapest_open_option``) over one commodity's cost classes."""
        accel = self._small_accel.get(commodity)
        if accel is None:
            accel = ClassDistanceIndex.from_cost_index(
                self._instance.metric, self._classes_for(commodity)
            )
            self._small_accel[commodity] = accel
        return accel

    def _large_provider(self) -> ClassDistanceIndex:
        """Distance queries over the large configuration's cost classes."""
        return self._large_accel

    # ------------------------------------------------------------------
    # Budgets (Section 4.1)
    # ------------------------------------------------------------------
    def _small_budget(self, state: OnlineState, request: Request, commodity: int) -> float:
        """``X(r, e)``."""
        existing = state.distance_to_nearest(commodity, request.point)
        _, cheapest_open = self._provider_for(commodity).cheapest_open_option(request.point)
        return min(existing, cheapest_open)

    def _large_budget(self, state: OnlineState, request: Request) -> float:
        """``Z(r)``."""
        existing = state.distance_to_nearest_large(request.point)
        _, cheapest_open = self._large_provider().cheapest_open_option(request.point)
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
            classes = self._classes_for(e)
            provider = self._provider_for(e)
            previous_distance = budget
            for cls in classes.classes:
                distance_i = provider.distance_to_class(cls.index, point)
                increment = previous_distance - distance_i
                previous_distance = distance_i
                if cls.value <= 0:
                    probability = 1.0 if increment > 0 else 0.0
                else:
                    probability = min(max(increment / cls.value, 0.0), 1.0) * share
                success = probability > 0 and rng.uniform() < probability
                state.trace.record(
                    CoinFlipEvent(
                        request_index=request.index,
                        kind="small",
                        commodity=e,
                        class_index=cls.index,
                        probability=probability,
                        success=success,
                    )
                )
                if success:
                    target, _ = provider.nearest_point_of_class(cls.index, point)
                    state.open_facility(request, target, (e,))

        # ----- coin flips for the large facility -----------------------------
        large_provider = self._large_provider()
        previous_distance = budget
        for cls in self._large_classes.classes:
            distance_i = large_provider.distance_to_class(cls.index, point)
            increment = previous_distance - distance_i
            previous_distance = distance_i
            if cls.value <= 0:
                probability = 1.0 if increment > 0 else 0.0
            else:
                probability = min(max(increment / cls.value, 0.0), 1.0)
            success = probability > 0 and rng.uniform() < probability
            state.trace.record(
                CoinFlipEvent(
                    request_index=request.index,
                    kind="large",
                    commodity=None,
                    class_index=cls.index,
                    probability=probability,
                    success=success,
                )
            )
            if success:
                target, _ = large_provider.nearest_point_of_class(cls.index, point)
                state.open_facility(request, target, self._instance.cost_function.full_set)

        # ----- feasibility fallback ------------------------------------------
        for e in commodities:
            if state.distance_to_nearest(e, point) == float("inf"):
                provider = self._provider_for(e)
                best_index, _ = provider.cheapest_open_option(point)
                target, _ = provider.nearest_point_of_class(best_index, point)
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
