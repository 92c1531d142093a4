"""PD-OMFLP — the deterministic primal–dual algorithm of Section 3 (Algorithm 1).

On arrival of a request ``r`` with commodity set ``s_r`` the algorithm raises a
common dual level for all not-yet-served commodities of ``r`` and reacts to the
first of four constraint families becoming tight:

(1) ``a_{re} <= d(F(e), r)`` — connect commodity ``e`` to the nearest open
    facility offering it;
(2) ``sum_{e in s_r} a_{re} <= d(F̂, r)`` — connect the whole request to the
    nearest open large facility;
(3) ``(a_{re} - d(m, r))_+ + sum_{j earlier, e in s_j}
    (min{a_{je}, d(F(e), j)} - d(m, j))_+ <= f^{{e}}_m`` — (temporarily) open a
    new small facility for ``e`` at ``m``;
(4) ``(sum_e a_{re} - d(m, r))_+ + sum_{j earlier}
    (min{sum_e a_{je}, d(F̂, j)} - d(m, j))_+ <= f^S_m`` — open a new large
    facility at ``m`` and connect the whole request to it (any temporarily
    opened small facilities are discarded).

When the request finishes without a large-facility event, the temporarily
opened small facilities are opened for real (line 10 of Algorithm 1).

Theorem 4: under Condition 1 the algorithm is ``O(sqrt(|S|) log n)``
competitive.  The dual variables it raises are exposed through
:meth:`PDOMFLPAlgorithm.duals` so that the analysis machinery (Corollary 8 and
the dual-feasibility scaling of Corollary 17) can be checked empirically.

Implementation conventions (DESIGN.md §4.1): the bid sums of constraints
(3)/(4) range over requests that arrived strictly earlier; facilities opened
while processing a request join ``F`` only once actually opened; ties are
broken deterministically in the order (1), (3), (2), (4), then by point and
commodity index.  All per-point quantities are numpy vectors over the whole
point set, so one event search is a handful of vectorized reductions.  The
opening costs ``f^{{e}}_m`` and ``f^L_m`` over all points are pure functions
of the cost, so they come read-only from the instance's tables
(:mod:`repro.accel.tables`), built once per configuration for every run on
that instance.  The bid sums of constraints (3)/(4) are run state: they come
from :class:`~repro.accel.history.BidHistoryBuffer` running sums, one buffer
per commodity (the earlier requests demanding it) and one for the large
configuration.

The class accepts a ``large_configuration`` parameter.  The default is the
full commodity set ``S`` (the paper's algorithm); restricting it realizes the
closing-remarks variant in which "heavy" commodities are excluded from the
large facility and are always served by small facilities.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.accel.history import BidHistoryBuffer
from repro.accel.tables import EnvironmentTables
from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.core.trace import DualFreezeEvent
from repro.dual.variables import DualVariableStore
from repro.exceptions import AlgorithmError, SnapshotError

__all__ = ["PDOMFLPAlgorithm"]

#: Numerical slack used when comparing trigger levels.
_EPS = 1e-12


class PDOMFLPAlgorithm(OnlineAlgorithm):
    """Deterministic primal–dual online algorithm for the OMFLP (Algorithm 1)."""

    randomized = False

    def __init__(self, *, large_configuration: Optional[Iterable[int]] = None) -> None:
        self._large_override = (
            frozenset(int(e) for e in large_configuration)
            if large_configuration is not None
            else None
        )
        self.name = "pd-omflp" if self._large_override is None else "pd-omflp-restricted"
        # Per-run state; initialized in prepare().
        self._duals: Optional[DualVariableStore] = None
        self._instance: Optional[Instance] = None
        self._large_set: FrozenSet[int] = frozenset()
        self._row_cache: Dict[int, np.ndarray] = {}
        self._tables: Optional[EnvironmentTables] = None
        # Bid-history buffers (see repro.accel.history): one per commodity
        # for constraint (3), one for the large constraint (4).
        self._small_buffers: Dict[int, BidHistoryBuffer] = {}
        self._large_buffer: Optional[BidHistoryBuffer] = None

    # ------------------------------------------------------------------
    # Run-loop hooks
    # ------------------------------------------------------------------
    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        self._instance = instance
        self._duals = DualVariableStore(instance.num_commodities)
        if self._large_override is not None:
            invalid = [e for e in self._large_override if not 0 <= e < instance.num_commodities]
            if invalid:
                raise AlgorithmError(
                    f"large_configuration contains unknown commodities {sorted(invalid)}"
                )
            if not self._large_override:
                raise AlgorithmError("large_configuration must not be empty")
            self._large_set = self._large_override
        else:
            self._large_set = instance.cost_function.full_set
        self._row_cache = {}
        self._tables = instance.tables
        self._small_buffers = {}
        self._large_buffer = BidHistoryBuffer(instance.metric)

    def duals(self) -> Optional[DualVariableStore]:
        return self._duals

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Duals plus the contents of every :class:`BidHistoryBuffer`.

        The static per-point cost vectors live in the instance's tables and
        the distance rows are re-read lazily.
        """
        if self._duals is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        return {
            "duals": self._duals.to_dict(),
            "small_buffers": [
                [commodity, buffer.state_dict()]
                for commodity, buffer in self._small_buffers.items()
            ],
            "large_buffer": self._large_buffer.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if self._duals is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        if len(self._duals) or self._small_buffers or len(self._large_buffer):
            raise SnapshotError(
                "PDOMFLPAlgorithm.load_state_dict requires a freshly prepared run"
            )
        if "history" in state and "small_buffers" not in state:
            raise SnapshotError(
                "PD-OMFLP snapshot holds the per-request 'history' bid state of "
                "the removed reference hot path and cannot be restored; replay "
                "the run's requests into a new session instead"
            )
        self._duals = DualVariableStore.from_dict(state["duals"])
        for commodity, buffer_state in state["small_buffers"]:
            buffer = BidHistoryBuffer(self._instance.metric)
            buffer.load_state_dict(buffer_state)
            self._small_buffers[int(commodity)] = buffer
        self._large_buffer.load_state_dict(state["large_buffer"])

    # ------------------------------------------------------------------
    # Cached quantities
    # ------------------------------------------------------------------
    def _distance_row(self, point: int) -> np.ndarray:
        row = self._row_cache.get(point)
        if row is None:
            row = np.asarray(self._instance.metric.distances_from(point), dtype=np.float64)
            self._row_cache[point] = row
        return row

    def _register_opened_facility(self, point: int, configuration: FrozenSet[int]) -> None:
        """Fold a newly opened facility into the earlier requests' bids.

        Each commodity buffer holds exactly the earlier requests that
        demanded that commodity, so lowering their nearest-facility distances
        is one vectorized fold per affected buffer.
        """
        row = self._distance_row(point)
        for commodity in configuration:
            buffer = self._small_buffers.get(commodity)
            if buffer is not None:
                buffer.update_nearest(row)
        if configuration >= self._large_set:
            self._large_buffer.update_nearest(row)

    def _nearest_covering_large(self, state: OnlineState, point: int) -> Optional[Tuple[object, float]]:
        """Nearest open facility covering the large configuration, or ``None``."""
        if self._large_set == self._instance.cost_function.full_set:
            return state.nearest_large(point)
        return state.store.nearest_covering(self._large_set, point)

    # ------------------------------------------------------------------
    # Bid sums of earlier requests (constraints (3) and (4))
    # ------------------------------------------------------------------
    def _base_small(self, commodity: int) -> np.ndarray:
        """``sum_{j earlier, e in s_j} (min{a_{je}, d(F(e), j)} - d(m, j))_+`` over all m."""
        buffer = self._small_buffers.get(commodity)
        if buffer is None:
            return np.zeros(self._instance.num_points, dtype=np.float64)
        return buffer.base()

    def _base_large(self) -> np.ndarray:
        """``sum_{j earlier} (min{sum_e a_{je}, d(F̂, j)} - d(m, j))_+`` over all m."""
        return self._large_buffer.base()

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    def process(self, request: Request, state: OnlineState, rng) -> None:
        instance = self._instance
        if instance is None:
            raise AlgorithmError("prepare() was not called before process()")
        point = request.point
        d_r = self._distance_row(point)
        commodities = sorted(request.commodities)
        large_members = [e for e in commodities if e in self._large_set]

        # Static quantities for this arrival (facilities do not change until
        # the processing opens one, which either terminates the large part or
        # happens after the loop).
        dist_small = {e: state.distance_to_nearest(e, point) for e in commodities}
        nearest_large_entry = self._nearest_covering_large(state, point)
        dist_large = nearest_large_entry[1] if nearest_large_entry is not None else float("inf")

        tables = self._tables
        trigger_small_open: Dict[int, np.ndarray] = {}
        for e in commodities:
            slack = np.maximum(tables.cost_vector((e,)) - self._base_small(e), 0.0)
            trigger_small_open[e] = d_r + slack
        base_large = self._base_large()
        slack_large = np.maximum(tables.cost_vector(self._large_set) - base_large, 0.0)

        # Event-driven growth of the common dual level.
        unserved = set(commodities)
        frozen: Dict[int, float] = {}
        served_by: Dict[int, int] = {}  # commodity -> facility id (existing or opened later)
        temp_small: Dict[int, int] = {}  # commodity -> point of a temporarily open small facility
        level = 0.0
        large_done = False

        while unserved:
            event = self._next_event(
                unserved,
                frozen,
                dist_small,
                trigger_small_open,
                dist_large,
                slack_large,
                d_r,
                large_members,
                large_done,
            )
            if event is None:
                raise AlgorithmError(
                    f"PD-OMFLP found no tight constraint for request {request.index}"
                )
            level = max(level, event[0])
            kind = event[1]

            if kind == "connect-small":
                commodity = event[2]
                nearest = state.nearest_offering(commodity, point)
                if nearest is None:
                    raise AlgorithmError(
                        f"constraint (1) tight for commodity {commodity} but no facility offers it"
                    )
                frozen[commodity] = level
                unserved.discard(commodity)
                served_by[commodity] = nearest[0].id
                if state.trace.enabled:
                    state.trace.record(
                        DualFreezeEvent(
                            request_index=request.index,
                            commodity=commodity,
                            value=level,
                            reason="constraint (1): connected to existing facility",
                        )
                    )
            elif kind == "open-small":
                commodity, m = event[2], event[3]
                frozen[commodity] = level
                unserved.discard(commodity)
                temp_small[commodity] = m
                if state.trace.enabled:
                    state.trace.record(
                        DualFreezeEvent(
                            request_index=request.index,
                            commodity=commodity,
                            value=level,
                            reason=(
                                "constraint (3): temporarily opened small facility "
                                f"at point {m}"
                            ),
                        )
                    )
            elif kind in ("connect-large", "open-large"):
                # Freeze all still-unserved commodities of the large part at
                # the current level; connect every commodity of s_r ∩ L to the
                # (existing or new) large facility; discard their temporary
                # small facilities (line 8 of Algorithm 1).
                for e in list(unserved):
                    if e in self._large_set:
                        frozen[e] = level
                        unserved.discard(e)
                        if state.trace.enabled:
                            constraint = "2" if kind == "connect-large" else "4"
                            state.trace.record(
                                DualFreezeEvent(
                                    request_index=request.index,
                                    commodity=e,
                                    value=level,
                                    reason=f"constraint ({constraint})",
                                )
                            )
                if kind == "connect-large":
                    entry = self._nearest_covering_large(state, point)
                    if entry is None:
                        raise AlgorithmError(
                            "constraint (2) tight but no large facility is open"
                        )
                    facility = entry[0]
                else:
                    m = event[2]
                    facility = state.open_facility(request, m, self._large_set)
                    self._register_opened_facility(facility.point, facility.configuration)
                for e in large_members:
                    served_by[e] = facility.id
                    temp_small.pop(e, None)
                large_done = True
            else:  # pragma: no cover - defensive
                raise AlgorithmError(f"unknown event kind {kind!r}")

        # Line 10 of Algorithm 1: open the remaining temporarily open small
        # facilities and connect their commodities to them.
        for commodity, m in sorted(temp_small.items()):
            facility = state.open_facility(request, m, (commodity,))
            self._register_opened_facility(facility.point, facility.configuration)
            served_by[commodity] = facility.id

        # Freeze the dual variables of this request.
        for commodity in commodities:
            self._duals.set(request.index, commodity, frozen[commodity])

        assignment = Assignment(request_index=request.index)
        for commodity in commodities:
            assignment.assign(commodity, served_by[commodity])
        state.record_assignment(request, assignment)

        self._join_bid_history(request, state)

    def _join_bid_history(self, request: Request, state: OnlineState) -> None:
        """Append ``request``'s bids to the buffers of constraints (3) and (4).

        Its nearest-facility distances are taken with respect to the facility
        set *after* its own processing.
        """
        point = request.point
        row = self._distance_row(point)
        for commodity in sorted(request.commodities):
            buffer = self._small_buffers.get(commodity)
            if buffer is None:
                buffer = self._small_buffers[commodity] = BidHistoryBuffer(
                    self._instance.metric
                )
            buffer.append(
                point,
                self._duals.get(request.index, commodity),
                state.distance_to_nearest(commodity, point),
                row=row,
            )
        if request.commodities & self._large_set:
            dual_sum = sum(
                self._duals.get(request.index, e)
                for e in request.commodities & self._large_set
            )
            entry = self._nearest_covering_large(state, point)
            self._large_buffer.append(
                point,
                dual_sum,
                entry[1] if entry is not None else float("inf"),
                row=row,
            )

    # ------------------------------------------------------------------
    def _next_event(
        self,
        unserved: set,
        frozen: Dict[int, float],
        dist_small: Dict[int, float],
        trigger_small_open: Dict[int, np.ndarray],
        dist_large: float,
        slack_large: np.ndarray,
        d_r: np.ndarray,
        large_members: Sequence[int],
        large_done: bool,
    ) -> Optional[Tuple[float, str, int, int]]:
        """Find the earliest tight constraint for the current growth phase.

        Returns ``(trigger_level, kind, *payload)`` where kind is one of
        ``"connect-small"`` (payload: commodity), ``"open-small"`` (payload:
        commodity, point), ``"connect-large"`` (no payload) and
        ``"open-large"`` (payload: point).  Ties are broken in exactly that
        order, then by commodity/point index (the iteration order below).
        """
        best: Optional[Tuple[float, str, int, int]] = None

        def better(candidate_level: float) -> bool:
            return best is None or candidate_level < best[0] - _EPS

        # Constraint (1): connect a single commodity to an existing facility.
        for e in sorted(unserved):
            level = dist_small[e]
            if np.isfinite(level) and better(level):
                best = (float(level), "connect-small", e, -1)

        # Constraint (3): open a new small facility.
        for e in sorted(unserved):
            vector = trigger_small_open[e]
            m = int(np.argmin(vector))
            level = float(vector[m])
            if better(level):
                best = (level, "open-small", e, m)

        # Constraints (2) and (4) only concern the large part of the request
        # and only while some of its commodities are still growing.
        unserved_large = [e for e in large_members if e in unserved]
        if unserved_large and not large_done:
            k = len(unserved_large)
            frozen_sum = sum(frozen.get(e, 0.0) for e in large_members if e not in unserved)
            if np.isfinite(dist_large):
                level = (dist_large - frozen_sum) / k
                if better(level):
                    best = (float(level), "connect-large", -1, -1)
            vector = (d_r + slack_large - frozen_sum) / k
            m = int(np.argmin(vector))
            level = float(vector[m])
            if better(level):
                best = (level, "open-large", m, -1)
        return best
