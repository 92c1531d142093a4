"""Storage of the dual variables ``a_{re}`` raised by PD-OMFLP."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.exceptions import AlgorithmError, SnapshotError
from repro.utils.validation import snapshot_field, snapshot_float, snapshot_int, snapshot_list

__all__ = ["DualVariableStore"]


class DualVariableStore:
    """Sparse store of dual variables indexed by ``(request_index, commodity)``.

    The store only ever *sets* values (PD-OMFLP freezes each ``a_{re}`` once,
    when the commodity gets served); attempting to overwrite a value with a
    different one raises, which catches algorithmic bookkeeping bugs early.
    """

    def __init__(self, num_commodities: int) -> None:
        if num_commodities <= 0:
            raise AlgorithmError(f"num_commodities must be positive, got {num_commodities}")
        self._num_commodities = int(num_commodities)
        self._values: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    @property
    def num_commodities(self) -> int:
        return self._num_commodities

    def set(self, request_index: int, commodity: int, value: float) -> None:
        """Freeze ``a_{re}`` at ``value`` (non-negative, write-once)."""
        if value < 0:
            raise AlgorithmError(
                f"dual variable a_({request_index},{commodity}) must be non-negative, got {value}"
            )
        if not 0 <= commodity < self._num_commodities:
            raise AlgorithmError(f"commodity {commodity} out of range")
        key = (int(request_index), int(commodity))
        existing = self._values.get(key)
        if existing is not None and abs(existing - value) > 1e-12:
            raise AlgorithmError(
                f"dual variable a_{key} was frozen twice with different values "
                f"({existing} then {value})"
            )
        self._values[key] = float(value)

    def get(self, request_index: int, commodity: int) -> float:
        """Return ``a_{re}`` (0 when never set)."""
        return self._values.get((int(request_index), int(commodity)), 0.0)

    def request_total(self, request_index: int, commodities: Iterable[int]) -> float:
        """``sum_{e in s_r} a_{re}`` for the given request."""
        return sum(self.get(request_index, e) for e in commodities)

    def total(self) -> float:
        """``sum_{r} sum_{e} a_{re}`` — the dual objective value."""
        return float(sum(self._values.values()))

    def items(self) -> List[Tuple[Tuple[int, int], float]]:
        return sorted(self._values.items())

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form; entries keep their freeze (insertion) order.

        Preserving the order keeps :meth:`total` — a Python sum over the dict
        values — bit-identical after a round-trip.
        """
        return {
            "num_commodities": self._num_commodities,
            "values": [
                [request_index, commodity, value]
                for (request_index, commodity), value in self._values.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DualVariableStore":
        """Inverse of :meth:`to_dict` (re-freezes entries in stored order).

        Every field is checked, not coerced: a damaged one raises
        :class:`SnapshotError` naming it under ``duals``.
        """
        num_commodities = snapshot_int(
            snapshot_field(data, "num_commodities", "duals"), "duals num_commodities"
        )
        if num_commodities <= 0:
            raise SnapshotError(f"duals num_commodities must be positive, got {num_commodities}")
        store = cls(num_commodities)
        values = store._values
        entries = snapshot_list(snapshot_field(data, "values", "duals"), "duals values")
        for position, entry in enumerate(entries):
            # Messages are formatted only on failure: a restore checks every entry.
            if type(entry) is not list or len(entry) != 3:
                snapshot_list(entry, f"duals values[{position}]", 3)
            request_index, commodity, value = entry
            if type(request_index) is not int or request_index < 0:
                raise SnapshotError(
                    f"duals values[{position}] request must be a non-negative JSON "
                    f"integer, got {request_index!r}"
                )
            if type(commodity) is not int or not 0 <= commodity < num_commodities:
                raise SnapshotError(
                    f"duals values[{position}] commodity must be a JSON integer in "
                    f"[0, {num_commodities}), got {commodity!r}"
                )
            if type(value) is not float:
                value = snapshot_float(value, f"duals values[{position}] value")
            if not value >= 0:
                raise SnapshotError(
                    f"duals values[{position}] value must be non-negative, got {value}"
                )
            if (request_index, commodity) in values:
                raise SnapshotError(
                    f"duals values repeats request {request_index} commodity {commodity}"
                )
            values[request_index, commodity] = value
        return store

    def as_dense_matrix(self, num_requests: int) -> np.ndarray:
        """Dense ``(num_requests, |S|)`` matrix of duals (zeros where unset).

        The dual-feasibility checker works on this dense form so that the
        per-configuration constraint sums are single numpy reductions.
        """
        matrix = np.zeros((num_requests, self._num_commodities), dtype=np.float64)
        for (request_index, commodity), value in self._values.items():
            if request_index < num_requests:
                matrix[request_index, commodity] = value
        return matrix

    def __len__(self) -> int:
        return len(self._values)
