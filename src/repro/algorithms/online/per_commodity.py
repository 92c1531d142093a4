"""Per-commodity decomposition baseline, and the single-commodity algorithms it covers.

Section 1.3 of the paper: "it is trivial to achieve an algorithm having a
competitive ratio of O(|S| · log n / log log n) simply by solving an instance
of the OFLP for each commodity separately, using Fotakis' algorithm, for
example."  This baseline does exactly that: it runs one single-commodity
online-facility-location helper per commodity (either the deterministic
primal–dual substrate or Meyerson's randomized one) whose facility opening
costs are the singleton costs ``f^{{e}}_m``.  Each helper reads and opens the
state's ``F(e)``, and reads its costs (and Meyerson's its cost classes) from
the instance's tables, so the baseline keeps no facility set and no cost
table of its own.

With ``|S| = 1`` the baseline *is* the classical algorithm:
:class:`FotakisOFLAlgorithm` and :class:`MeyersonOFLAlgorithm` are this class
with ``|S| = 1`` checked in :meth:`~PerCommodityAlgorithm.prepare`.

On instances whose optimal solution bundles many commodities into shared
facilities (e.g. the Theorem-2 adversary), this baseline loses a factor of
Θ(|S| / √|S|) = Θ(√|S|) against PD-OMFLP / RAND-OMFLP — the separation the
``baseline-separation`` experiment measures.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Union

from repro.algorithms.base import OnlineAlgorithm
from repro.algorithms.online.fotakis_ofl import SingleCommodityPrimalDual
from repro.algorithms.online.meyerson_ofl import SingleCommodityMeyerson
from repro.core.assignment import Assignment
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.exceptions import AlgorithmError, SnapshotError
from repro.utils.validation import snapshot_field, snapshot_int, snapshot_list

__all__ = ["PerCommodityAlgorithm", "FotakisOFLAlgorithm", "MeyersonOFLAlgorithm"]

Helper = Union[SingleCommodityPrimalDual, SingleCommodityMeyerson]


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
        self._helpers: Dict[int, Helper] = {}

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        self._instance = instance
        self._helpers = {}

    def _helper_for(self, commodity: int) -> Helper:
        helper = self._helpers.get(commodity)
        if helper is None:
            helper_class = (
                SingleCommodityPrimalDual if self._base == "fotakis" else SingleCommodityMeyerson
            )
            helper = self._helpers[commodity] = helper_class(self._instance, commodity)
        return helper

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """``[commodity, helper state]`` per helper, in creation order."""
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        return {
            "helpers": [
                [commodity, helper.state_dict()] for commodity, helper in self._helpers.items()
            ]
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        if self._helpers:
            raise SnapshotError(
                "PerCommodityAlgorithm.load_state_dict requires a freshly prepared run"
            )
        helpers = snapshot_list(snapshot_field(state, "helpers", f"{self.name} state"), "helpers")
        num_commodities = self._instance.num_commodities
        for position, entry in enumerate(helpers):
            at = f"helpers[{position}]"
            commodity, helper_state = snapshot_list(entry, at, 2)
            commodity = snapshot_int(commodity, f"{at} commodity")
            if not 0 <= commodity < num_commodities:
                raise SnapshotError(
                    f"{at} commodity must lie in [0, {num_commodities}), got {commodity}"
                )
            if commodity in self._helpers:
                raise SnapshotError(f"helpers repeats commodity {commodity}")
            try:
                self._helper_for(commodity).load_state_dict(helper_state)
            except SnapshotError as error:
                raise SnapshotError(f"{at}: {error}") from None

    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._instance is None:
            raise AlgorithmError("prepare() was not called before process()")
        pairs = {
            commodity: self._helper_for(commodity).decide(request, state, rng)
            for commodity in sorted(request.commodities)
        }
        state.record_assignment(request, Assignment(request.index, pairs))


class FotakisOFLAlgorithm(PerCommodityAlgorithm):
    """Classical online facility location (single commodity, deterministic).

    The ``"fotakis"`` baseline on instances with ``|S| = 1``, where every
    request demands the unique commodity.
    """

    def __init__(self) -> None:
        super().__init__("fotakis")
        self.name = "fotakis-ofl"

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        _require_one_commodity("FotakisOFLAlgorithm", instance)
        super().prepare(instance, state, rng)


class MeyersonOFLAlgorithm(PerCommodityAlgorithm):
    """Classical randomized online facility location (single commodity).

    The ``"meyerson"`` baseline on instances with ``|S| = 1``.
    """

    def __init__(self) -> None:
        super().__init__("meyerson")
        self.name = "meyerson-ofl"

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        _require_one_commodity("MeyersonOFLAlgorithm", instance)
        super().prepare(instance, state, rng)


def _require_one_commodity(algorithm: str, instance: Instance) -> None:
    if instance.num_commodities != 1:
        raise AlgorithmError(
            f"{algorithm} requires |S| = 1; got |S| = {instance.num_commodities}"
        )
