"""The bid ledger of a primal–dual run: exact running bid sums per slot.

The primal–dual algorithms (Fotakis OFL, PD-OMFLP) evaluate, per request, the
bid sum of all earlier demands towards every candidate point:

    base(m) = sum_j ( min{a_j, d(F, j)} - d(m, j) )_+

Rebuilding this from scratch each time would cost a Python pass over the
history for the bids plus an O(h x n) ``vstack`` copy of the history distance
rows (the scan the test oracle ``tests/oracles.py`` keeps).
:class:`BidHistoryBuffer` is one run's ledger of such histories, one per
*slot*: PD-OMFLP keeps a slot per commodity (constraint (3)) and one for the
large configuration (constraint (4)); the Fotakis helper keeps one slot.

* Each slot keeps flat per-entry columns: the point, the row of its distances
  in the store, the frozen dual and the nearest-facility distance (updated in
  place).
* The distance rows live once per run: a growable 2-D store with one row per
  distinct point seen (requests and opened facilities), plus a point -> row
  map.  :meth:`row` serves the algorithms' ``distances_from`` reads from it,
  so the metric computes each row once per run.
* The running sums live in one ``(slots x n)`` array; each slot reads and
  writes its own row.

* ``append`` adds the new entry's clipped row ``(min{a_j, d(F, j)} - d(., j))_+``
  to its slot's sum in O(n), reading the distances from the store.  The duals
  are frozen, so an entry's term changes only when its bid
  ``min{a_j, d(F, j)}`` does.
* ``update_nearest`` marks a slot's sum stale only when a newly opened
  facility lowers some entry's bid below its old value; openings that leave
  every bid unchanged (the common case) keep the sum valid.
* ``base(slot)`` returns a copy of the slot's running sum; callers may use it
  as a work buffer.  It recomputes the full ``(h x n)`` expression only when
  the sum is stale — after such an opening, or after :meth:`load_state_dict`,
  which therefore does no summing at restore — and always when ``n == 1``.

The result is bit-for-bit identical to that scan.  The operands are the
same floats, and the recompute gathers the slot's rows in entry order with
one fancy index into a C-contiguous ``(h, n)`` block, the same layout as the
scan's ``vstack``.  For ``n > 1`` numpy's axis-0 sum over that layout
accumulates row by row in order, which is exactly the running ``+=``.  For
``n == 1`` it sums the single column pairwise, which a running sum cannot
reproduce, so that case always recomputes.

Memory: one row per distinct point, O(min(points seen, n) x n) floats per
run however many slots an entry joins, plus ``slots x n`` sums and four
scalars per entry.  The store grows by an eighth at a time, so it stays
within ~12% of the rows it holds (doubling would reserve up to twice them:
8 MiB instead of ~5.3 for the 632 rows of an 8 x 128-point run after 1 000
requests).  Only the stale recompute gathers rows
(after a bid drops, after a restore, and at ``n == 1``); otherwise ``base()``
allocates no ``(h x n)`` temporaries at all.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

import numpy as np

from repro.exceptions import SnapshotError
from repro.metric.base import MetricSpace
from repro.utils.encoding import encode_floats
from repro.utils.validation import snapshot_field, snapshot_floats, snapshot_indices

__all__ = ["BidHistoryBuffer", "open_trigger"]

_INITIAL_CAPACITY = 8


def open_trigger(base: np.ndarray, costs: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``row + (costs - base)_+``, the level at which opening at each point gets tight.

    Built in place in ``base``, the fresh copy :meth:`BidHistoryBuffer.base`
    hands out, with the same elementwise operations as the expression.
    """
    np.subtract(costs, base, out=base)
    np.maximum(base, 0.0, out=base)
    np.add(row, base, out=base)
    return base


class BidHistoryBuffer:
    """``slots`` histories of ``(point, dual, nearest-facility distance)`` bid entries.

    ``len()`` counts the entries of every slot.  Every method taking a
    ``slot`` defaults to slot 0, the whole ledger of a one-slot run.
    """

    def __init__(self, metric: MetricSpace, slots: int = 1) -> None:
        n = metric.num_points
        self._metric = metric
        self._num_points = n
        # Distance rows, one per distinct point, in first-seen order; read-only
        # between writes, so no caller can change a row another one reads.
        self._store = np.empty((min(n, _INITIAL_CAPACITY), n), dtype=np.float64)
        self._store.flags.writeable = False
        self._row_index: Dict[int, int] = {}
        # Per-slot entry columns (the first ``_sizes[slot]`` items are live).
        self._points = [np.empty(_INITIAL_CAPACITY, dtype=np.intp) for _ in range(slots)]
        self._rows = [np.empty(_INITIAL_CAPACITY, dtype=np.intp) for _ in range(slots)]
        self._duals = [np.empty(_INITIAL_CAPACITY, dtype=np.float64) for _ in range(slots)]
        self._nearest = [np.empty(_INITIAL_CAPACITY, dtype=np.float64) for _ in range(slots)]
        self._sizes = [0] * slots
        # Running bid sum per slot; valid unless stale.  At n = 1 base()
        # always recomputes (numpy sums that column pairwise).
        self._sums = np.zeros((slots, n), dtype=np.float64)
        self._sum_rows = list(self._sums)
        self._stale = [False] * slots
        self._pairwise = n == 1
        self._work = np.empty(n, dtype=np.float64)

    def __len__(self) -> int:
        return sum(self._sizes)

    def entries(self, slot: int = 0) -> int:
        """Number of entries in ``slot``."""
        return self._sizes[slot]

    # ------------------------------------------------------------------
    # Distance rows
    # ------------------------------------------------------------------
    def row(self, point: int) -> np.ndarray:
        """``distances_from(point)``, read from the metric once per run (a read-only view)."""
        index = self._row_index.get(point)
        if index is None:
            index = self._add_row(point)
        return self._store[index]

    def _add_row(self, point: int) -> int:
        point = int(point)
        row = self._metric.distances_from(point)
        index = len(self._row_index)
        capacity = self._store.shape[0]
        if index == capacity:
            self._reserve(capacity + max(_INITIAL_CAPACITY, capacity // 8))
        store = self._store
        store.flags.writeable = True
        store[index] = row
        store.flags.writeable = False
        self._row_index[point] = index
        return index

    def _reserve(self, rows: int) -> None:
        """Grow the store to ``rows`` rows (never past one per point)."""
        held = len(self._row_index)
        store = np.empty((min(self._num_points, rows), self._num_points), dtype=np.float64)
        store[:held] = self._store[:held]
        store.flags.writeable = False
        self._store = store

    def _grow_slot(self, slot: int) -> None:
        for columns in (self._points, self._rows, self._duals, self._nearest):
            old = columns[slot]
            columns[slot] = np.empty(2 * old.shape[0], dtype=old.dtype)
            columns[slot][: old.shape[0]] = old

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def append(self, point: int, dual: float, nearest: float, *, slot: int = 0) -> None:
        """Record a processed demand in ``slot`` (its dual is frozen and never changes)."""
        index = self._row_index.get(point)
        if index is None:
            index = self._add_row(point)
        h = self._sizes[slot]
        if h == self._points[slot].shape[0]:
            self._grow_slot(slot)
        dual, nearest = float(dual), float(nearest)
        self._points[slot][h] = point
        self._rows[slot][h] = index
        self._duals[slot][h] = dual
        self._nearest[slot][h] = nearest
        self._sizes[slot] = h + 1
        if not self._stale[slot]:
            work = self._work
            np.subtract(min(dual, nearest), self._store[index], out=work)
            np.maximum(work, 0.0, out=work)
            total = self._sum_rows[slot]
            np.add(total, work, out=total)

    def update_nearest(self, opened_row: np.ndarray, slot: int = 0) -> None:
        """Fold a newly opened facility into every entry's nearest distance in ``slot``.

        ``opened_row`` is ``distances_from(opened_point)``; entry ``j``'s
        nearest distance becomes ``min(old, opened_row[point_j])`` — the
        per-entry update, vectorized.  The slot's running sum goes
        stale only if some entry's bid ``min(dual_j, nearest_j)`` drops.
        """
        h = self._sizes[slot]
        if h:
            nearest = self._nearest[slot][:h]
            opened = opened_row[self._points[slot][:h]]
            if not self._stale[slot]:
                bids = np.minimum(self._duals[slot][:h], nearest)
                self._stale[slot] = bool(np.any(opened < bids))
            np.minimum(nearest, opened, out=nearest)

    def base(self, slot: int = 0) -> np.ndarray:
        """``sum_j (min{dual_j, nearest_j} - d(m, j))_+`` over all points ``m``.

        A fresh array, owned by the caller.
        """
        if self._stale[slot] or self._pairwise:
            h = self._sizes[slot]
            bids = np.minimum(self._duals[slot][:h], self._nearest[slot][:h])
            block = self._store[self._rows[slot][:h]]
            np.subtract(bids[:, None], block, out=block)
            np.maximum(block, 0.0, out=block)
            self._sum_rows[slot][:] = block.sum(axis=0)
            self._stale[slot] = False
        return self._sum_rows[slot].copy()

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self, slot: int = 0) -> Dict[str, Any]:
        """JSON-compatible snapshot of ``slot``: per-entry point, dual and nearest distance.

        The O(entries x n) distance rows are *not* stored — they are pure
        metric rows, refetched bit-identically by :meth:`load_state_dict`.
        Nearest distances may be ``inf`` and are string-encoded for strict
        JSON (see :mod:`repro.utils.encoding`).
        """
        h = self._sizes[slot]
        return {
            "points": self._points[slot][:h].tolist(),
            "duals": self._duals[slot][:h].tolist(),
            "nearest": encode_floats(self._nearest[slot][:h].tolist()),
        }

    def load_state_dict(self, state: Mapping[str, Any], slot: int = 0) -> None:
        """Load ``slot`` (which must be empty) from :meth:`state_dict` output.

        Every field is checked before anything changes: a damaged entry
        raises :class:`SnapshotError` naming it.  The store reads each new
        distinct point's row once.  The running sum is left stale, so the
        first ``base()`` computes it.
        """
        if self._sizes[slot]:
            raise SnapshotError(
                f"BidHistoryBuffer.load_state_dict requires an empty slot; "
                f"slot {slot} already holds {self._sizes[slot]} entries"
            )
        where = f"bid slot {slot}"
        points = snapshot_indices(
            snapshot_field(state, "points", where), f"{where} points", self._num_points
        )
        duals = snapshot_floats(snapshot_field(state, "duals", where), f"{where} duals")
        nearest = snapshot_floats(snapshot_field(state, "nearest", where), f"{where} nearest")
        if not len(points) == len(duals) == len(nearest):
            raise SnapshotError(
                f"BidHistoryBuffer snapshot has mismatched entry lists: "
                f"{len(points)} points, {len(duals)} duals, {len(nearest)} nearest"
            )
        row_index = self._row_index
        unseen = [point for point in dict.fromkeys(points) if point not in row_index]
        if len(row_index) + len(unseen) > self._store.shape[0]:
            self._reserve(len(row_index) + len(unseen))
        for point in unseen:
            self._add_row(point)
        capacity = max(_INITIAL_CAPACITY, len(points))
        for columns, values in (
            (self._points, points),
            (self._rows, [row_index[point] for point in points]),
            (self._duals, duals),
            (self._nearest, nearest),
        ):
            column = columns[slot] = np.empty(capacity, dtype=columns[slot].dtype)
            column[: len(points)] = values
        self._sizes[slot] = len(points)
        self._stale[slot] = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BidHistoryBuffer(slots={len(self._sizes)}, entries={len(self)})"
