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

Acceleration (``use_accel``, default on): the bid sums over earlier demands
are evaluated from a preallocated
:class:`~repro.accel.history.BidHistoryBuffer` (no per-request Python loop or
``vstack`` copy over the history; an exact running sum makes a request O(n)
unless an opening lowered some bid) and the nearest-own-facility query is O(1)
via a :class:`~repro.accel.tracker.NearestSetTracker`.  Both are bit-identical
to the reference path (``use_accel=False``), which is retained for the
equivalence harness.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.utils.encoding import decode_float, encode_float

__all__ = ["SingleCommodityPrimalDual", "FotakisOFLAlgorithm"]


@dataclass
class _HistoryEntry:
    """One earlier demand seen by the single-commodity primal–dual helper."""

    point: int
    dual: float
    nearest_distance: float  # distance to the helper's nearest own facility


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

    def __init__(
        self, metric: MetricSpace, opening_costs: Sequence[float], *, use_accel: bool = True
    ) -> None:
        costs = np.asarray(opening_costs, dtype=np.float64)
        if costs.shape != (metric.num_points,):
            raise AlgorithmError(
                f"opening_costs must have one entry per point, got shape {costs.shape}"
            )
        self._metric = metric
        self._costs = costs
        self._history: List[_HistoryEntry] = []  # reference-path bid state only
        self._dual_values: List[float] = []
        self._facility_points: List[int] = []
        self._row_cache: Dict[int, np.ndarray] = {}
        self._use_accel = bool(use_accel)
        self._buffer: Optional[BidHistoryBuffer] = None
        self._tracker: Optional[NearestSetTracker] = None
        if self._use_accel:
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
        if self._tracker is not None:
            entry = self._tracker.nearest(point)
            if entry is None:
                return None, float("inf")
            return entry
        if not self._facility_points:
            return None, float("inf")
        distances = self._metric.distances_between(point, self._facility_points)
        best = int(np.argmin(distances))
        return best, float(distances[best])

    def _bid_base(self) -> np.ndarray:
        """Bid sum of earlier demands towards every point (constraint (3))."""
        if self._buffer is not None:
            return self._buffer.base()
        if not self._history:
            return np.zeros(self._metric.num_points, dtype=np.float64)
        bids = np.array(
            [min(entry.dual, entry.nearest_distance) for entry in self._history],
            dtype=np.float64,
        )
        rows = np.vstack([self._row(entry.point) for entry in self._history])
        return np.maximum(bids[:, None] - rows, 0.0).sum(axis=0)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Facility points, dual values and the bid history of the helper.

        The shape of ``history`` is the same for both hot paths — per-entry
        ``(point, dual, nearest)`` triples — so the snapshot is agnostic to
        which path produced it; distance rows are refetched on restore.
        """
        if self._buffer is not None:
            history = self._buffer.state_dict()
        else:
            history = {
                "points": [entry.point for entry in self._history],
                "duals": [entry.dual for entry in self._history],
                "nearest": [encode_float(entry.nearest_distance) for entry in self._history],
            }
        return {
            "facility_points": list(self._facility_points),
            "dual_values": [float(v) for v in self._dual_values],
            "history": history,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Replay facility openings and reload the bid history (fresh helper only)."""
        if self._facility_points or self._dual_values:
            raise SnapshotError(
                "SingleCommodityPrimalDual.load_state_dict requires a fresh helper"
            )
        for point in state["facility_points"]:
            self._facility_points.append(int(point))
            if self._tracker is not None:
                self._tracker.add(int(point), tag=len(self._facility_points) - 1)
        self._dual_values = [float(v) for v in state["dual_values"]]
        history = state["history"]
        if self._buffer is not None:
            self._buffer.load_state_dict(history)
        else:
            for point, dual, nearest in zip(
                history["points"], history["duals"], history["nearest"]
            ):
                self._history.append(
                    _HistoryEntry(
                        point=int(point),
                        dual=float(dual),
                        nearest_distance=decode_float(nearest),
                    )
                )

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
            self._facility_points.append(open_point)
            if self._tracker is not None:
                self._tracker.add(open_point, tag=len(self._facility_points) - 1)
            kind, payload = "open", open_point

        # Update the bid history (the new demand's nearest distance reflects
        # the facility set after its own processing).  The _HistoryEntry list
        # backs only the reference bid sums, so the accel path does not grow
        # it — stale entries would otherwise linger for anyone inspecting it.
        _, new_nearest = self._nearest_own_facility(point)
        if self._buffer is not None:
            if kind == "open":
                self._buffer.update_nearest(self._row(open_point))
            self._buffer.append(point, dual, new_nearest, row=row)
        else:
            for entry in self._history:
                if kind == "open":
                    entry.nearest_distance = min(
                        entry.nearest_distance, float(self._row(open_point)[entry.point])
                    )
            self._history.append(
                _HistoryEntry(point=point, dual=dual, nearest_distance=new_nearest)
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

    def __init__(self, *, use_accel: bool = True) -> None:
        self.name = "fotakis-ofl"
        self._use_accel = bool(use_accel)
        self._helper: Optional[SingleCommodityPrimalDual] = None
        self._facility_of_slot: Dict[int, int] = {}

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        if instance.num_commodities != 1:
            raise AlgorithmError(
                "FotakisOFLAlgorithm requires |S| = 1; got "
                f"|S| = {instance.num_commodities}"
            )
        costs = instance.cost_function.costs_over_points((0,), list(range(instance.num_points)))
        self._helper = SingleCommodityPrimalDual(
            instance.metric, costs, use_accel=self._use_accel
        )
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
