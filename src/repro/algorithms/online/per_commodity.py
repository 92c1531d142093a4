"""Per-commodity decomposition baseline.

Section 1.3 of the paper: "it is trivial to achieve an algorithm having a
competitive ratio of O(|S| · log n / log log n) simply by solving an instance
of the OFLP for each commodity separately, using Fotakis' algorithm, for
example."  This baseline does exactly that: it maintains one independent
single-commodity online-facility-location instance per commodity (either the
deterministic primal–dual substrate or Meyerson's randomized one) whose
facility opening costs are the singleton costs ``f^{{e}}_m``.

On instances whose optimal solution bundles many commodities into shared
facilities (e.g. the Theorem-2 adversary), this baseline loses a factor of
Θ(|S| / √|S|) = Θ(√|S|) against PD-OMFLP / RAND-OMFLP — the separation the
``baseline-separation`` experiment measures.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.algorithms.base import OnlineAlgorithm
from repro.algorithms.online.fotakis_ofl import SingleCommodityPrimalDual
from repro.algorithms.online.meyerson_ofl import SingleCommodityMeyerson
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.exceptions import AlgorithmError, SnapshotError

__all__ = ["PerCommodityAlgorithm"]


class PerCommodityAlgorithm(OnlineAlgorithm):
    """Independent single-commodity online facility location per commodity.

    Parameters
    ----------
    base:
        ``"fotakis"`` (deterministic primal–dual, default) or ``"meyerson"``
        (randomized).
    """

    def __init__(self, base: str = "fotakis") -> None:
        if base not in ("fotakis", "meyerson"):
            raise AlgorithmError(f"unknown base algorithm {base!r}")
        self._base = base
        self.name = f"per-commodity-{base}"
        self.randomized = base == "meyerson"
        self._instance: Optional[Instance] = None
        self._helpers: Dict[int, object] = {}
        # (commodity, helper facility slot) -> real facility id
        self._facility_of_slot: Dict[Tuple[int, int], int] = {}

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        self._instance = instance
        self._helpers = {}
        self._facility_of_slot = {}

    def _helper_for(self, commodity: int):
        helper = self._helpers.get(commodity)
        if helper is None:
            costs = self._instance.cost_function.costs_over_points(
                (commodity,), list(range(self._instance.num_points))
            )
            if self._base == "fotakis":
                helper = SingleCommodityPrimalDual(self._instance.metric, costs)
            else:
                helper = SingleCommodityMeyerson(self._instance.metric, costs)
            self._helpers[commodity] = helper
        return helper

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Per-commodity helper snapshots (in creation order) plus slot map."""
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        return {
            "helpers": [
                [commodity, helper.state_dict()]
                for commodity, helper in self._helpers.items()
            ],
            "facility_of_slot": [
                [commodity, slot, fid]
                for (commodity, slot), fid in self._facility_of_slot.items()
            ],
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        if self._helpers:
            raise SnapshotError(
                "PerCommodityAlgorithm.load_state_dict requires a freshly prepared run"
            )
        for commodity, helper_state in state["helpers"]:
            self._helper_for(int(commodity)).load_state_dict(helper_state)
        self._facility_of_slot = {
            (int(commodity), int(slot)): int(fid)
            for commodity, slot, fid in state["facility_of_slot"]
        }

    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before process()")
        assignment = Assignment(request_index=request.index)
        for commodity in sorted(request.commodities):
            helper = self._helper_for(commodity)
            if self._base == "fotakis":
                kind, payload, _ = helper.decide(request.point)
                if kind == "open":
                    facility = state.open_facility(request, payload, (commodity,))
                    slot = len(helper.facility_points) - 1
                    self._facility_of_slot[(commodity, slot)] = facility.id
                    facility_id = facility.id
                else:
                    facility_id = self._facility_of_slot[(commodity, payload)]
            else:
                before = len(helper.facility_points)
                _, slot, _ = helper.decide(request.point, rng)
                helper_points = helper.facility_points
                for new_slot in range(before, len(helper_points)):
                    facility = state.open_facility(request, helper_points[new_slot], (commodity,))
                    self._facility_of_slot[(commodity, new_slot)] = facility.id
                facility_id = self._facility_of_slot[(commodity, slot)]
            assignment.assign(commodity, facility_id)
        state.record_assignment(request, assignment)
