"""Fotakis' deterministic primal–dual algorithm for online facility location.

Fotakis (2007) gave a simple primal–dual online algorithm for the classical
(single-commodity) Online Facility Location Problem that is O(log n)
competitive; it is the basis of the paper's deterministic algorithm
(Section 3.1: "It is inspired by the primal dual formulation of Fotakis'
deterministic algorithm [5] for the OFLP presented in [14]").

Two artifacts live here:

* :class:`SingleCommodityPrimalDual` — a self-contained helper that runs the
  primal–dual logic for *one* commodity against its own private facility set.
  It is reused by the per-commodity decomposition baseline
  (:class:`~repro.algorithms.online.per_commodity.PerCommodityAlgorithm`).
* :class:`FotakisOFLAlgorithm` — the classical OFL algorithm as an
  :class:`~repro.algorithms.base.OnlineAlgorithm` for instances with
  ``|S| = 1`` (used by the substrate sanity experiment).

The bid sums over earlier demands come from a one-slot bid ledger,
:class:`~repro.accel.history.BidHistoryBuffer` (an exact running sum makes a
request O(n) unless an opening lowered some bid), which also keeps each
distinct point's distance row once per run; the nearest-own-facility query
is O(1) via a :class:`~repro.accel.tracker.NearestSetTracker`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.accel.history import BidHistoryBuffer, open_trigger
from repro.accel.tracker import NearestSetTracker
from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.exceptions import AlgorithmError, SnapshotError
from repro.metric.base import MetricSpace
from repro.utils.validation import (
    snapshot_field,
    snapshot_floats,
    snapshot_indices,
    snapshot_int_rows,
)

__all__ = ["SingleCommodityPrimalDual", "FotakisOFLAlgorithm"]


class SingleCommodityPrimalDual:
    """Primal–dual online facility location for a single commodity.

    The helper owns a private list of facility locations (the facilities *it*
    decided to open); mapping those decisions onto real
    :class:`~repro.core.facility.Facility` objects is the caller's job.

    Parameters
    ----------
    metric:
        The underlying metric space.
    opening_costs:
        Vector of facility opening costs per point for this commodity.
    """

    def __init__(self, metric: MetricSpace, opening_costs: Sequence[float]) -> None:
        costs = np.asarray(opening_costs, dtype=np.float64)
        if costs.shape != (metric.num_points,):
            raise AlgorithmError(
                f"opening_costs must have one entry per point, got shape {costs.shape}"
            )
        self._metric = metric
        self._costs = costs
        self._dual_values: List[float] = []
        self._facility_points: List[int] = []
        self._ledger = BidHistoryBuffer(metric)
        self._tracker = NearestSetTracker()

    # ------------------------------------------------------------------
    @property
    def facility_points(self) -> List[int]:
        return list(self._facility_points)

    @property
    def num_facilities(self) -> int:
        """``len(facility_points)`` without copying the list."""
        return len(self._facility_points)

    @property
    def duals(self) -> List[float]:
        """Dual value raised for each processed demand, in arrival order."""
        return list(self._dual_values)

    def _row(self, point: int) -> np.ndarray:
        return self._ledger.row(point)

    def _nearest_own_facility(self, point: int) -> Tuple[Optional[int], float]:
        """(index into facility_points, distance) of the nearest own facility."""
        entry = self._tracker.nearest(point)
        if entry is None:
            return None, float("inf")
        return entry

    def _append_facility(self, point: int) -> None:
        self._facility_points.append(int(point))
        # Tag = slot index, so _nearest_own_facility reports the slot.
        self._tracker.add(
            self._metric.distances_to(int(point)), tag=len(self._facility_points) - 1
        )

    def _bid_base(self) -> np.ndarray:
        """Bid sum of earlier demands towards every point (constraint (3)), a fresh array."""
        return self._ledger.base()

    def _join_bid_history(
        self, point: int, dual: float, nearest: float, opened: Optional[int]
    ) -> None:
        """Fold the facility ``opened`` for this demand (if any) into the
        earlier demands' bids, then append the demand itself."""
        if opened is not None:
            self._ledger.update_nearest(self._row(opened))
        self._ledger.append(point, dual, nearest)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Facility points, dual values and the bid history of the helper.

        ``history`` holds per-entry ``(point, dual, nearest)`` triples;
        distance rows are refetched on restore.
        """
        return {
            "facility_points": list(self._facility_points),
            "dual_values": [float(v) for v in self._dual_values],
            "history": self._ledger.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Replay facility openings and reload the bid history (fresh helper only).

        The facility points must be JSON integers of the metric and the duals
        JSON numbers; anything else raises :class:`SnapshotError` naming the
        entry, before any facility opens.
        """
        if self._facility_points or self._dual_values:
            raise SnapshotError(
                "SingleCommodityPrimalDual.load_state_dict requires a fresh helper"
            )
        where = "primal-dual helper"
        points = snapshot_indices(
            snapshot_field(state, "facility_points", f"{where} state"),
            f"{where} facility_points",
            self._metric.num_points,
        )
        duals = snapshot_floats(
            snapshot_field(state, "dual_values", f"{where} state"), f"{where} dual_values"
        )
        history = snapshot_field(state, "history", f"{where} state")
        for point in points:
            self._append_facility(point)
        self._dual_values = duals
        self._ledger.load_state_dict(history)

    # ------------------------------------------------------------------
    def decide(self, point: int) -> Tuple[str, int, float]:
        """Process a demand at ``point``.

        Returns ``(kind, facility_slot, dual)`` where ``kind`` is ``"connect"``
        (serve from the existing own facility with index ``facility_slot``) or
        ``"open"`` (a new own facility was opened at point ``facility_slot``
        — note the different meaning — and the demand is served from it).
        """
        row = self._row(point)
        slot, nearest_distance = self._nearest_own_facility(point)

        trigger = open_trigger(self._bid_base(), self._costs, row)
        open_point = int(trigger.argmin())
        open_level = float(trigger[open_point])

        if nearest_distance <= open_level + 1e-12:
            dual = nearest_distance
            kind, payload = "connect", int(slot)
        else:
            dual = open_level
            self._append_facility(open_point)
            kind, payload = "open", open_point

        # The demand joins the bid history; its nearest distance reflects the
        # facility set after its own processing.
        _, new_nearest = self._nearest_own_facility(point)
        self._join_bid_history(
            point, dual, new_nearest, open_point if kind == "open" else None
        )
        self._dual_values.append(dual)
        return kind, payload, dual


class FotakisOFLAlgorithm(OnlineAlgorithm):
    """Classical online facility location (single commodity, deterministic).

    Only valid on instances with ``|S| = 1`` where every request demands the
    unique commodity; use
    :class:`~repro.algorithms.online.per_commodity.PerCommodityAlgorithm` for
    the multi-commodity decomposition baseline.
    """

    randomized = False

    def __init__(self) -> None:
        self.name = "fotakis-ofl"
        self._helper: Optional[SingleCommodityPrimalDual] = None
        self._facility_of_slot: Dict[int, int] = {}

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        if instance.num_commodities != 1:
            raise AlgorithmError(
                "FotakisOFLAlgorithm requires |S| = 1; got "
                f"|S| = {instance.num_commodities}"
            )
        costs = instance.cost_function.costs_over_points((0,), list(range(instance.num_points)))
        self._helper = SingleCommodityPrimalDual(instance.metric, costs)
        self._facility_of_slot = {}

    def state_dict(self) -> Dict[str, Any]:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        return {
            "helper": self._helper.state_dict(),
            "facility_of_slot": [
                [slot, fid] for slot, fid in self._facility_of_slot.items()
            ],
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        where = f"{self.name} state"
        self._helper.load_state_dict(snapshot_field(state, "helper", where))
        self._facility_of_slot = dict(
            snapshot_int_rows(
                snapshot_field(state, "facility_of_slot", where),
                "facility_of_slot",
                ("slot", "facility id"),
            )
        )

    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before process()")
        kind, payload, _ = self._helper.decide(request.point)
        if kind == "open":
            facility = state.open_facility(request, payload, (0,))
            slot = self._helper.num_facilities - 1
            self._facility_of_slot[slot] = facility.id
            facility_id = facility.id
        else:
            facility_id = self._facility_of_slot[payload]
        assignment = Assignment(request.index, {0: facility_id})
        state.record_assignment(request, assignment)
