"""Bid-history buffers with exact running bid sums for the primal–dual algorithms.

The primal–dual algorithms (Fotakis OFL, PD-OMFLP) evaluate, per request, the
bid sum of all earlier demands towards every candidate point:

    base(m) = sum_j ( min{a_j, d(F, j)} - d(m, j) )_+

The reference implementations rebuild this from scratch each time — a Python
list comprehension over the history for the bids plus an O(h x n) ``vstack``
copy of the history distance rows.  :class:`BidHistoryBuffer` keeps the rows
in one preallocated, geometrically-grown ``(capacity, n)`` array, the
per-entry duals / nearest-facility distances in flat arrays updated in place,
and the sum itself as a running ``(n,)`` vector:

* ``append`` adds the new entry's clipped row ``(min{a_j, d(F, j)} - d(., j))_+``
  in O(n).  The duals are frozen, so an entry's term changes only when its
  bid ``min{a_j, d(F, j)}`` does.
* ``update_nearest`` marks the sum stale only when a newly opened facility
  lowers some entry's bid below its old value; openings that leave every bid
  unchanged (the common case) keep the sum valid.
* ``base()`` returns a copy of the running sum.  It recomputes the full
  ``(h x n)`` expression only when the sum is stale — after such an opening,
  or after :meth:`BidHistoryBuffer.load_state_dict`, which therefore does no
  summing at restore — and always when ``n == 1``.

The result is bit-for-bit identical to the reference.  The operands are the
same floats, and the recompute slices a C-contiguous ``(h, n)`` block, the
same layout as the reference's ``vstack``.  For ``n > 1`` numpy's axis-0 sum
over that layout accumulates row by row in order, which is exactly the
running ``+=``.  For ``n == 1`` it sums the single column pairwise, which a
running sum cannot reproduce, so that case always recomputes.

Memory: each buffer keeps its rows resident — O(entries x n) floats — where
the reference only peaked at one transient ``vstack`` of the same size per
request.  Only the recompute reads them (after a bid drops, after a restore,
and at ``n == 1``); otherwise ``base()`` allocates no ``(h x n)``
temporaries at all.  Keeping the block contiguous is deliberate: a
deduplicated shared row store was tried when every ``base()`` recomputed,
and its gather cost as much as the reference's ``vstack``.
PD-OMFLP's per-commodity buffers hold only the requests demanding that
commodity, so the total across buffers is O(sum of demand sizes x n); for
memory-constrained runs the ``use_accel=False`` reference path remains
available.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.exceptions import SnapshotError
from repro.metric.base import MetricSpace
from repro.utils.encoding import decode_floats, encode_floats

__all__ = ["BidHistoryBuffer"]

_INITIAL_CAPACITY = 8


class BidHistoryBuffer:
    """History of ``(point, dual, nearest-facility distance)`` bid entries."""

    def __init__(self, metric: MetricSpace) -> None:
        self._metric = metric
        n = metric.num_points
        self._rows = np.empty((_INITIAL_CAPACITY, n), dtype=np.float64)
        self._points = np.empty(_INITIAL_CAPACITY, dtype=np.intp)
        self._duals = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._nearest = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0
        # Running bid sum over the entries; valid unless ``_stale``.  At
        # n = 1 base() always recomputes (numpy sums that column pairwise).
        self._sum = np.zeros(n, dtype=np.float64)
        self._stale = False
        self._pairwise = n == 1

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        capacity = self._points.shape[0] * 2
        rows = np.empty((capacity, self._metric.num_points), dtype=np.float64)
        rows[: self._size] = self._rows[: self._size]
        self._rows = rows
        for name in ("_points", "_duals", "_nearest"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    def append(
        self, point: int, dual: float, nearest: float, *, row: Optional[np.ndarray] = None
    ) -> None:
        """Record a processed demand (its dual is frozen and never changes).

        ``row`` may pass the caller's cached ``distances_from(point)`` to
        avoid recomputing it; otherwise it is fetched from the metric.
        """
        if self._size == self._points.shape[0]:
            self._grow()
        h = self._size
        self._rows[h] = self._metric.distances_from(point) if row is None else row
        self._points[h] = int(point)
        self._duals[h] = float(dual)
        self._nearest[h] = float(nearest)
        self._size = h + 1
        if not self._stale:
            bid = np.minimum(self._duals[h], self._nearest[h])
            self._sum += np.maximum(bid - self._rows[h], 0.0)

    def update_nearest(self, opened_row: np.ndarray) -> None:
        """Fold a newly opened facility into every entry's nearest distance.

        ``opened_row`` is ``distances_from(opened_point)``; entry ``j``'s
        nearest distance becomes ``min(old, opened_row[point_j])`` — exactly
        the reference's per-entry update, vectorized.  The running sum goes
        stale only if some entry's bid ``min(dual_j, nearest_j)`` drops.
        """
        h = self._size
        if h:
            nearest = self._nearest[:h]
            opened = opened_row[self._points[:h]]
            if not self._stale:
                self._stale = bool(np.any(opened < np.minimum(self._duals[:h], nearest)))
            np.minimum(nearest, opened, out=nearest)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot: per-entry point, dual and nearest distance.

        The O(entries x n) distance rows are *not* stored — they are pure
        metric rows, refetched bit-identically by :meth:`load_state_dict`.
        Nearest distances may be ``inf`` and are string-encoded for strict
        JSON (see :mod:`repro.utils.encoding`).
        """
        h = self._size
        return {
            "points": [int(p) for p in self._points[:h]],
            "duals": [float(d) for d in self._duals[:h]],
            "nearest": encode_floats(self._nearest[:h]),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Rebuild the buffer by replaying ``append`` (requires a fresh buffer).

        The running sum is left stale, so the first ``base()`` computes it.
        """
        if self._size:
            raise SnapshotError(
                f"BidHistoryBuffer.load_state_dict requires an empty buffer; "
                f"this one already holds {self._size} entries"
            )
        points, duals = state["points"], state["duals"]
        nearest = decode_floats(state["nearest"])
        if not len(points) == len(duals) == len(nearest):
            raise SnapshotError(
                f"BidHistoryBuffer snapshot has mismatched entry lists: "
                f"{len(points)} points, {len(duals)} duals, {len(nearest)} nearest"
            )
        self._stale = True
        for point, dual, near in zip(points, duals, nearest):
            self.append(int(point), float(dual), near)

    # ------------------------------------------------------------------
    def base(self) -> np.ndarray:
        """``sum_j (min{dual_j, nearest_j} - d(m, j))_+`` over all points ``m``."""
        if self._stale or self._pairwise:
            h = self._size
            bids = np.minimum(self._duals[:h], self._nearest[:h])
            self._sum = np.maximum(bids[:, None] - self._rows[:h], 0.0).sum(axis=0)
            self._stale = False
        return self._sum.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BidHistoryBuffer(entries={self._size})"
