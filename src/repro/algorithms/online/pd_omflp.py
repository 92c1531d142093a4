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
point set.  The facilities do not change while an arrival's level grows
(an opening either ends the large part or comes after the loop), so each
commodity's trigger vector of (3) and its minimum are found once per
arrival; (4)'s minimum is found again only when the number of growing large
commodities changes.  The opening costs ``f^{{e}}_m`` and ``f^L_m`` over all
points are pure functions of the cost, so they come read-only from the
instance's tables (:mod:`repro.accel.tables`), built once per configuration
for every run on that instance.  The bid sums of constraints (3)/(4) are run
state: they come from one bid ledger per run,
:class:`~repro.accel.history.BidHistoryBuffer`, with a slot per commodity
(the earlier requests demanding it) and one for the large configuration,
whose store also holds the run's distance rows.

The class accepts a ``large_configuration`` parameter.  The default is the
full commodity set ``S`` (the paper's algorithm); restricting it realizes the
closing-remarks variant in which "heavy" commodities are excluded from the
large facility and are always served by small facilities.
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.accel.history import BidHistoryBuffer, open_trigger
from repro.accel.tables import EnvironmentTables
from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.core.trace import DualFreezeEvent
from repro.dual.variables import DualVariableStore
from repro.exceptions import AlgorithmError, SnapshotError
from repro.utils.validation import snapshot_field, snapshot_int, snapshot_list

__all__ = ["PDOMFLPAlgorithm"]

#: Numerical slack used when comparing trigger levels.
_EPS = 1e-12

_INF = float("inf")


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
        self._tables: Optional[EnvironmentTables] = None
        # The run's bid ledger (see repro.accel.history): slot e holds the
        # earlier requests demanding commodity e, for constraint (3), and
        # slot |S| every earlier request, for the large constraint (4).
        self._ledger: Optional[BidHistoryBuffer] = None
        self._large_slot = 0
        # Commodities in the order of their first bid entry (snapshot order).
        self._joined: List[int] = []

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
        self._tables = instance.tables
        self._ledger = BidHistoryBuffer(instance.metric, slots=instance.num_commodities + 1)
        self._large_slot = instance.num_commodities
        self._joined = []

    def duals(self) -> Optional[DualVariableStore]:
        return self._duals

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Duals plus the bid entries of every ledger slot.

        ``small_buffers`` lists the commodities in the order of their first
        entry, then ``large_buffer`` the large slot.  The static per-point
        cost vectors live in the instance's tables and the distance rows are
        re-read on restore.
        """
        if self._duals is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        ledger = self._ledger
        return {
            "duals": self._duals.to_dict(),
            "small_buffers": [
                [commodity, ledger.state_dict(commodity)] for commodity in self._joined
            ],
            "large_buffer": ledger.state_dict(self._large_slot),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Load :meth:`state_dict` output into a freshly prepared run.

        The duals and bid slots load into a new ledger that replaces the
        run's only once every entry passed, so a refused state leaves the
        run freshly prepared.
        """
        if self._duals is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        if len(self._duals) or len(self._ledger):
            raise SnapshotError(
                "PDOMFLPAlgorithm.load_state_dict requires a freshly prepared run"
            )
        duals = DualVariableStore.from_dict(snapshot_field(state, "duals", "PD-OMFLP state"))
        num_commodities = self._instance.num_commodities
        if duals.num_commodities != num_commodities:
            raise SnapshotError(
                f"duals num_commodities must be {num_commodities}, got {duals.num_commodities}"
            )
        if "history" in state and "small_buffers" not in state:
            raise SnapshotError(
                "PD-OMFLP snapshot holds the per-request 'history' bid state of "
                "the removed reference hot path and cannot be restored; replay "
                "the run's requests into a new session instead"
            )
        histories = snapshot_list(
            snapshot_field(state, "small_buffers", "PD-OMFLP state"), "small_buffers"
        )
        ledger = BidHistoryBuffer(self._instance.metric, slots=self._large_slot + 1)
        joined: List[int] = []
        for position, pair in enumerate(histories):
            where = f"small_buffers[{position}]"
            commodity, history = snapshot_list(pair, where, 2)
            commodity = snapshot_int(commodity, f"{where} commodity")
            if not 0 <= commodity < num_commodities:
                raise SnapshotError(
                    f"{where} commodity must lie in [0, {num_commodities}), got {commodity}"
                )
            if commodity in joined:
                raise SnapshotError(f"small_buffers repeats commodity {commodity}")
            ledger.load_state_dict(history, slot=commodity)
            if not ledger.entries(commodity):
                raise SnapshotError(f"{where} holds no bid entries for commodity {commodity}")
            joined.append(commodity)
        ledger.load_state_dict(
            snapshot_field(state, "large_buffer", "PD-OMFLP state"), slot=self._large_slot
        )
        self._duals, self._ledger, self._joined = duals, ledger, joined

    # ------------------------------------------------------------------
    # Cached quantities
    # ------------------------------------------------------------------
    def _distance_row(self, point: int) -> np.ndarray:
        return self._ledger.row(point)

    def _register_opened_facility(self, point: int, configuration: FrozenSet[int]) -> None:
        """Fold a newly opened facility into the earlier requests' bids.

        Each commodity slot holds exactly the earlier requests that demanded
        that commodity, so lowering their nearest-facility distances is one
        vectorized fold per affected slot.
        """
        row = self._distance_row(point)
        ledger = self._ledger
        for commodity in configuration:
            ledger.update_nearest(row, slot=commodity)
        if configuration >= self._large_set:
            ledger.update_nearest(row, slot=self._large_slot)

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
        return self._ledger.base(commodity)

    def _base_large(self) -> np.ndarray:
        """``sum_{j earlier} (min{sum_e a_{je}, d(F̂, j)} - d(m, j))_+`` over all m."""
        return self._ledger.base(self._large_slot)

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

        # Facilities do not change until the processing opens one, which
        # either ends the large part or happens after the loop.  So the
        # levels of constraints (1) and (2), and each commodity's trigger
        # vector of constraint (3) with its minimum, hold for the whole
        # arrival: each is found once here.
        tables = self._tables
        connect_small = {e: state.distance_to_nearest(e, point) for e in commodities}
        open_small: Dict[int, Tuple[float, int]] = {}
        for e in commodities:
            trigger = open_trigger(self._base_small(e), tables.cost_vector((e,)), d_r)
            m = int(trigger.argmin())
            open_small[e] = (float(trigger[m]), m)
        nearest_large_entry = self._nearest_covering_large(state, point)
        connect_large = nearest_large_entry[1] if nearest_large_entry is not None else _INF
        if large_members:
            trigger_large = open_trigger(
                self._base_large(), tables.cost_vector(self._large_set), d_r
            )
        # Constraint (4)'s vector is (d_r + slack - frozen_sum) / k for the k
        # large commodities still growing; k fixes frozen_sum too, so its
        # minimum is found again only when k changes.
        open_large: Tuple[int, float, int] = (0, _INF, -1)  # (k, level, point)

        # Event-driven growth of the common dual level.
        unserved = set(commodities)
        frozen: Dict[int, float] = {}
        served_by: Dict[int, int] = {}  # commodity -> facility id (existing or opened later)
        temp_small: Dict[int, int] = {}  # commodity -> point of a temporarily open small facility
        level = 0.0

        while unserved:
            # Constraints (2) and (4) only concern the large part of the
            # request and only while some of its commodities still grow.
            large = None
            growing_large = [e for e in large_members if e in unserved]
            if growing_large:
                k = len(growing_large)
                frozen_sum = sum(frozen[e] for e in large_members if e not in unserved)
                if k != open_large[0]:
                    # Subtracting 0 and dividing by 1 change no bit: skipped.
                    vector = trigger_large - frozen_sum if frozen_sum else trigger_large
                    if k != 1:
                        vector = vector / k
                    m = int(vector.argmin())
                    open_large = (k, float(vector[m]), m)
                large = ((connect_large - frozen_sum) / k, open_large[1], open_large[2])
            event = _next_event(
                [e for e in commodities if e in unserved], connect_small, open_small, large
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
            else:  # "connect-large" or "open-large"
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
        """Append ``request``'s bids to the ledger slots of constraints (3) and (4).

        Its nearest-facility distances are taken with respect to the facility
        set *after* its own processing.
        """
        point = request.point
        ledger = self._ledger
        duals = self._duals
        for commodity in sorted(request.commodities):
            if not ledger.entries(commodity):
                self._joined.append(commodity)
            ledger.append(
                point,
                duals.get(request.index, commodity),
                state.distance_to_nearest(commodity, point),
                slot=commodity,
            )
        large = request.commodities & self._large_set
        if large:
            dual_sum = sum(duals.get(request.index, e) for e in large)
            entry = self._nearest_covering_large(state, point)
            ledger.append(
                point,
                dual_sum,
                entry[1] if entry is not None else _INF,
                slot=self._large_slot,
            )


def _next_event(
    growing: List[int],
    connect_small: Mapping[int, float],
    open_small: Mapping[int, Tuple[float, int]],
    large: Optional[Tuple[float, float, int]],
) -> Optional[Tuple[float, str, int, int]]:
    """Find the earliest tight constraint for the current growth phase.

    ``growing`` lists the unserved commodities in index order; ``large``
    holds the levels of constraints (2) and (4) and the point of (4) while
    the large part grows, else ``None``.  Returns ``(trigger_level, kind,
    *payload)`` where kind is one of ``"connect-small"`` (payload:
    commodity), ``"open-small"`` (payload: commodity, point),
    ``"connect-large"`` (no payload) and ``"open-large"`` (payload: point).
    Ties are broken in exactly that order, then by commodity/point index (the
    iteration order below).
    """
    best: Optional[Tuple[float, str, int, int]] = None
    # Constraint (1): connect a single commodity to an existing facility.
    for e in growing:
        level = connect_small[e]
        if math.isfinite(level) and (best is None or level < best[0] - _EPS):
            best = (level, "connect-small", e, -1)
    # Constraint (3): open a new small facility.
    for e in growing:
        level, m = open_small[e]
        if best is None or level < best[0] - _EPS:
            best = (level, "open-small", e, m)
    if large is not None:
        connect_level, open_level, m = large
        if math.isfinite(connect_level) and (best is None or connect_level < best[0] - _EPS):
            best = (connect_level, "connect-large", -1, -1)
        if best is None or open_level < best[0] - _EPS:
            best = (open_level, "open-large", m, -1)
    return best
