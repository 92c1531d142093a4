"""Meyerson's randomized algorithm for online facility location.

Meyerson (FOCS 2001) opens, when a demand arrives, a facility with probability
proportional to the connection cost the demand would otherwise pay; for
non-uniform facility costs the decision is spread over power-of-two cost
classes.  The algorithm is O(log n / log log n)-competitive against adversarial
sequences and constant-competitive for random order; it is the basis of the
paper's RAND-OMFLP (Section 4).

:class:`SingleCommodityMeyerson` runs it for one commodity ``e`` of an
:class:`~repro.core.state.OnlineState`: it reads ``d(F(e), r)`` and the
nearest facility from the state and opens through it, so the state's ``F(e)``
is the run's only facility set.  The per-commodity baseline runs one helper
per commodity, and ``meyerson-ofl`` is that baseline at ``|S| = 1``
(:mod:`repro.algorithms.online.per_commodity`).

The helper reads its cost classes, with their memoized per-class distance
columns, from the instance's tables (``instance.tables.cost_classes((e,))``,
a :class:`~repro.costs.classes.CostClassIndex`, the one RAND-OMFLP reads), so
a demand costs O(classes) plus O(n) per opened facility or unseen point, and
a session reloaded onto its kept instance builds no class index and reads no
metric row for one.  The helper keeps only what neither the state nor the
tables hold: each class's cumulative points in ascending point order, for its
nearest-point scan, which breaks equal distances towards the lowest point
index (the tables' scan goes class by class).  Its snapshot is empty.
The coins are flipped in one scalar loop over the class values and the
memoized class distances: each class's probability is a float expression of
two neighbouring distances, and a class with a positive probability takes
one ``random()`` draw.  A column holds one to a few classes, so plain float
arithmetic is cheaper here than NumPy calls on tiny arrays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.costs.classes import class_position
from repro.exceptions import SnapshotError

__all__ = ["SingleCommodityMeyerson"]


class SingleCommodityMeyerson:
    """Meyerson's randomized online facility location for one commodity.

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
        self._metric = instance.metric
        self._classes = instance.tables.cost_classes(self._configuration)
        self._class_points: List[np.ndarray] = [
            np.sort(np.asarray(cls.cumulative_points, dtype=np.intp))
            for cls in self._classes.classes
        ]

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return self._classes.num_classes

    def class_value(self, index: int) -> float:
        """``C_i`` for the 1-based class index."""
        return self._classes.class_value(index)

    def distance_to_class(self, index: int, point: int) -> float:
        """Distance to the nearest point of rounded cost at most ``C_i``."""
        return self._classes.distance_to_class(index, point)

    def nearest_point_of_class(self, index: int, point: int) -> int:
        """The lowest-index point of rounded cost at most ``C_i`` nearest to ``point``."""
        points = self._class_points[class_position(index, len(self._class_points))]
        return self._metric.nearest(point, points)[0]

    def cheapest_open_option(self, point: int) -> Tuple[int, float]:
        """``(argmin_i, min_i (C_i + d(C_i, r)))`` with 1-based index (first minimum)."""
        return self._classes.cheapest_open_option(point)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Empty: the facilities are the state's ``F(e)``, the classes are the tables'."""
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Nothing to read: ``F(e)`` comes back with the restored state.

        The state must still be a JSON object (:class:`SnapshotError`).
        """
        if not isinstance(state, Mapping):
            raise SnapshotError(
                f"Meyerson helper state must be a JSON object, got {type(state).__name__}"
            )

    # ------------------------------------------------------------------
    def decide(self, request: Request, state: OnlineState, rng) -> int:
        """Serve commodity ``e`` of ``request``; return the facility id it connects to.

        The budget is ``X(r) = min{d(F(e), r), min_i (C_i + d(C_i, r))}``.
        Class ``i`` opens with probability
        ``min(max((d(C_{i-1}, r) - d(C_i, r)) / C_i, 0), 1)``, with
        ``d(C_0, r) = X(r)``; a zero-cost class opens exactly when that
        difference is positive.  The opened facilities join ``F(e)`` in
        class order, and the demand connects to the nearest of ``F(e)``.
        """
        point = request.point
        nearest = state.nearest_offering(self._commodity, point)
        best_class, cheapest_open = self.cheapest_open_option(point)
        previous = cheapest_open if nearest is None else min(nearest[1], cheapest_open)
        opened: List[int] = []
        classes = zip(self._classes.values, self._classes.distances(point))
        for index, (value, distance) in enumerate(classes, start=1):
            increment = previous - distance
            previous = distance
            if value <= 0:
                probability = 1.0 if increment > 0 else 0.0
            else:
                probability = min(max(increment / value, 0.0), 1.0)
            if probability > 0 and rng.random() < probability:
                opened.append(self.nearest_point_of_class(index, point))
        if nearest is None and not opened:
            # Feasibility fallback: open the cheapest opening option
            # deterministically (changes constants only, see DESIGN.md §4.2).
            opened.append(self.nearest_point_of_class(best_class, point))
        if opened:
            for new_point in opened:
                state.open_facility(request, new_point, self._configuration)
            nearest = state.nearest_offering(self._commodity, point)
        return nearest[0].id
