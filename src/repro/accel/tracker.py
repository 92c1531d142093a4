"""Incremental nearest-set distance tracking.

:class:`NearestSetTracker` maintains the running minimum distance from every
metric point to a *growing* set of tagged points (open facility locations):

* ``add(column, tag)`` folds one new member in with a single vectorized
  ``minimum`` over its ``distances_to`` column — O(n).  The caller reads the
  column, so one read serves every tracker the member joins (a facility
  joins one per offered commodity, plus the large-facility tracker);
* ``distance(q)`` / ``nearest(q)`` answer ``d(q, F)`` and "which member is
  closest" in O(1), replacing the reference implementation's per-query scan
  over the whole member list.

Bit-identicality with the reference scan is guaranteed by two invariants:

1. Columns come from :meth:`repro.metric.base.MetricSpace.distances_to`,
   whose contract is ``distances_to(p)[q] == distances_from(q)[p]``
   bit-for-bit, so the tracked minima are minima over exactly the floats the
   reference reads.
2. Ties are broken towards the earliest-added member (strict ``<`` update),
   which is what ``np.argmin`` over members in insertion order returns.

A third invariant follows from the strict ``<``, and the cost model prices
connections by it (:meth:`repro.core.facility.FacilityStore.connection_distance`):

3. ``_dmin[p]`` is bit-for-bit the ``distances_to`` column of member
   ``_tags[p]`` read at ``p``: the tag moves only where the new column is
   strictly smaller, and there the minimum is that column's value.  So
   ``nearest(p) == (tag, distance(p, point of tag))`` for finite distances.

Trackers are deliberately *not* serialized by the session snapshot codec
(:mod:`repro.service.snapshot`): their arrays are a pure fold over the member
sequence, so restoring a snapshot replays the same ``add`` calls in the same
order and reproduces ``_dmin``/``_tags`` bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["NearestSetTracker"]


class NearestSetTracker:
    """Running ``d(·, F)`` over a growing tagged point set.

    The tracker holds no metric: each member arrives as its
    ``distances_to`` column, whose length gives the number of points.
    Arrays are allocated on the first :meth:`add`, so constructing trackers
    for point sets that stay empty is free.
    """

    def __init__(self) -> None:
        self._dmin: Optional[np.ndarray] = None
        self._tags: Optional[np.ndarray] = None
        self._num_added = 0

    # ------------------------------------------------------------------
    def add(self, column: np.ndarray, tag: Optional[int] = None) -> None:
        """Fold in the member whose ``distances_to`` column is ``column`` (O(n)).

        ``tag`` defaults to the insertion index; it is what :meth:`nearest`
        reports for queries whose closest member this one becomes.  The
        column is only read: the first fold copies it, so callers may share
        one column (or a metric's internal buffer) between trackers.
        """
        tag_value = self._num_added if tag is None else int(tag)
        if self._dmin is None:
            self._dmin = np.array(column, dtype=np.float64)
            self._tags = np.full(len(column), tag_value, dtype=np.int64)
        else:
            closer = column < self._dmin
            self._tags[closer] = tag_value
            np.minimum(self._dmin, column, out=self._dmin)
        self._num_added += 1

    # ------------------------------------------------------------------
    def distance(self, point: int) -> float:
        """``d(point, F)`` — ``inf`` while the set is empty (O(1))."""
        if self._dmin is None:
            return float("inf")
        return self._dmin.item(point)

    def nearest(self, point: int) -> Optional[Tuple[int, float]]:
        """``(tag, distance)`` of the closest member, or ``None`` when empty.

        ``item`` reads the Python int and float straight from the arrays,
        the values ``int()`` and ``float()`` of the NumPy scalars give.
        """
        if self._dmin is None:
            return None
        return self._tags.item(point), self._dmin.item(point)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NearestSetTracker(members={self._num_added})"
