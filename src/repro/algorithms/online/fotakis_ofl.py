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

The bid sums over earlier demands are evaluated from a preallocated
:class:`~repro.accel.history.BidHistoryBuffer` (an exact running sum makes a
request O(n) unless an opening lowered some bid) and the nearest-own-facility
query is O(1) via a :class:`~repro.accel.tracker.NearestSetTracker`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.accel.history import BidHistoryBuffer
from repro.accel.tracker import NearestSetTracker
from repro.algorithms.base import OnlineAlgorithm
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.exceptions import AlgorithmError, SnapshotError
from repro.metric.base import MetricSpace

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
        self._row_cache: Dict[int, np.ndarray] = {}
        self._buffer = BidHistoryBuffer(metric)
        self._tracker = NearestSetTracker(metric)

    # ------------------------------------------------------------------
    @property
    def facility_points(self) -> List[int]:
        return list(self._facility_points)

    @property
    def duals(self) -> List[float]:
        """Dual value raised for each processed demand, in arrival order."""
        return list(self._dual_values)

    def _row(self, point: int) -> np.ndarray:
        row = self._row_cache.get(point)
        if row is None:
            row = np.asarray(self._metric.distances_from(point), dtype=np.float64)
            self._row_cache[point] = row
        return row

    def _nearest_own_facility(self, point: int) -> Tuple[Optional[int], float]:
        """(index into facility_points, distance) of the nearest own facility."""
        entry = self._tracker.nearest(point)
        if entry is None:
            return None, float("inf")
        return entry

    def _append_facility(self, point: int) -> None:
        self._facility_points.append(int(point))
        # Tag = slot index, so _nearest_own_facility reports the slot.
        self._tracker.add(int(point), tag=len(self._facility_points) - 1)

    def _bid_base(self) -> np.ndarray:
        """Bid sum of earlier demands towards every point (constraint (3))."""
        return self._buffer.base()

    def _join_bid_history(
        self, point: int, dual: float, nearest: float, opened: Optional[int]
    ) -> None:
        """Fold the facility ``opened`` for this demand (if any) into the
        earlier demands' bids, then append the demand itself."""
        if opened is not None:
            self._buffer.update_nearest(self._row(opened))
        self._buffer.append(point, dual, nearest, row=self._row(point))

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
            "history": self._buffer.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Replay facility openings and reload the bid history (fresh helper only)."""
        if self._facility_points or self._dual_values:
            raise SnapshotError(
                "SingleCommodityPrimalDual.load_state_dict requires a fresh helper"
            )
        for point in state["facility_points"]:
            self._append_facility(int(point))
        self._dual_values = [float(v) for v in state["dual_values"]]
        self._buffer.load_state_dict(state["history"])

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

        base = self._bid_base()
        slack = np.maximum(self._costs - base, 0.0)
        open_trigger = row + slack
        open_point = int(np.argmin(open_trigger))
        open_level = float(open_trigger[open_point])

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
        self._helper.load_state_dict(state["helper"])
        self._facility_of_slot = {
            int(slot): int(fid) for slot, fid in state["facility_of_slot"]
        }

    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before process()")
        kind, payload, _ = self._helper.decide(request.point)
        if kind == "open":
            facility = state.open_facility(request, payload, (0,))
            slot = len(self._helper.facility_points) - 1
            self._facility_of_slot[slot] = facility.id
            facility_id = facility.id
        else:
            facility_id = self._facility_of_slot[payload]
        assignment = Assignment(request_index=request.index)
        assignment.assign(0, facility_id)
        state.record_assignment(request, assignment)
