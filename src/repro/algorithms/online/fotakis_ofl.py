"""Fotakis' deterministic primal–dual algorithm for online facility location.

Fotakis (2007) gave a simple primal–dual online algorithm for the classical
(single-commodity) Online Facility Location Problem that is O(log n)
competitive; it is the basis of the paper's deterministic algorithm
(Section 3.1: "It is inspired by the primal dual formulation of Fotakis'
deterministic algorithm [5] for the OFLP presented in [14]").

:class:`SingleCommodityPrimalDual` runs it for one commodity ``e`` of an
:class:`~repro.core.state.OnlineState`: it reads ``d(F(e), r)`` and the
nearest facility from the state and opens through it, so the state's ``F(e)``
is the run's only facility set.  The per-commodity decomposition baseline
runs one helper per commodity, and ``fotakis-ofl`` (used by the substrate
sanity experiment) is that baseline at ``|S| = 1``
(:mod:`repro.algorithms.online.per_commodity`).

The helper reads its opening costs ``f^{{e}}_m`` from the instance's tables
(``instance.tables.cost_vector((e,))``, the vector PD-OMFLP reads) and keeps
only what neither the state nor the tables hold: the bid sums over earlier
demands, in a one-slot bid ledger
(:class:`~repro.accel.history.BidHistoryBuffer`; an exact running sum makes a
request O(n) unless an opening lowered some bid), which also keeps each
distinct point's distance row once per run.  The ledger's entries are the
helper's snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.accel.history import BidHistoryBuffer, open_trigger
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.utils.validation import snapshot_field

__all__ = ["SingleCommodityPrimalDual"]


class SingleCommodityPrimalDual:
    """Primal–dual online facility location for a single commodity.

    Parameters
    ----------
    instance:
        The instance whose metric and cost tables the helper reads.
    commodity:
        The commodity ``e`` whose facilities ``F(e)`` the helper reads and opens.
    """

    def __init__(self, instance: Instance, commodity: int) -> None:
        self._commodity = commodity
        self._configuration = (commodity,)
        self._costs = instance.tables.cost_vector(self._configuration)
        self._ledger = BidHistoryBuffer(instance.metric)

    # ------------------------------------------------------------------
    def _row(self, point: int) -> np.ndarray:
        return self._ledger.row(point)

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
        """The bid history: per-entry ``(point, dual, nearest)`` columns.

        Distance rows are refetched on restore; the facilities are the
        state's ``F(e)``.
        """
        return {"history": self._ledger.state_dict()}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Reload the bid history (fresh helper only).

        A damaged entry raises :class:`SnapshotError` naming it, before the
        ledger changes.
        """
        self._ledger.load_state_dict(snapshot_field(state, "history", "primal-dual helper state"))

    # ------------------------------------------------------------------
    def decide(self, request: Request, state: OnlineState, rng) -> int:
        """Serve commodity ``e`` of ``request``; return the facility id it connects to.

        The demand connects to the nearest facility of ``F(e)`` if that is no
        farther than the cheapest opening level; otherwise it opens the
        facility of that level and connects to it.  Either way its dual is
        the level it paid, and it joins the bid history.  The rule is
        deterministic: ``rng`` only keeps the Meyerson helper's signature.
        """
        point = request.point
        row = self._row(point)
        nearest = state.nearest_offering(self._commodity, point)
        nearest_distance = float("inf") if nearest is None else nearest[1]

        trigger = open_trigger(self._bid_base(), self._costs, row)
        open_point = int(trigger.argmin())
        open_level = float(trigger[open_point])

        if nearest_distance <= open_level + 1e-12:
            dual = nearest_distance
            facility, opened = nearest[0], None
        else:
            dual = open_level
            facility = state.open_facility(request, open_point, self._configuration)
            opened = open_point
            nearest_distance = state.distance_to_nearest(self._commodity, point)

        # The demand joins the bid history; its nearest distance reflects the
        # facility set after its own processing.
        self._join_bid_history(point, dual, nearest_distance, opened)
        return facility.id
