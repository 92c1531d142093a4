"""Points in Euclidean space R^d."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import InvalidMetricError
from repro.metric.base import MetricSpace

__all__ = ["EuclideanMetric"]


class EuclideanMetric(MetricSpace):
    """Finite metric induced by points in ``R^d`` with the Euclidean norm.

    Distances from a point are computed with a vectorized norm over the whole
    coordinate array.
    """

    def __init__(self, coordinates: Sequence[Sequence[float]]) -> None:
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise InvalidMetricError(
                f"coordinates must have shape (n, d) with n >= 1, got {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise InvalidMetricError("coordinates must be finite")
        self._coords = np.ascontiguousarray(coords)
        # Read on every request; the coordinates are private and never reshaped.
        self._num_points = int(coords.shape[0])

    @property
    def num_points(self) -> int:
        return self._num_points

    @property
    def dimension(self) -> int:
        """Ambient dimension ``d``."""
        return int(self._coords.shape[1])

    @property
    def coordinates(self) -> np.ndarray:
        view = self._coords.view()
        view.flags.writeable = False
        return view

    def distances_from(self, point: int) -> np.ndarray:
        self._check_point(point)
        delta = self._coords - self._coords[point]
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))

    def distance(self, a: int, b: int) -> float:
        """O(d) scalar distance, bit-for-bit ``distances_from(a)[b]``.

        The same ``sqrt(einsum)`` contraction as the row, on one difference
        vector; ``math.hypot`` or a Python sum over coordinates round
        differently.
        """
        self._check_point(a)
        self._check_point(b)
        delta = self._coords[b] - self._coords[a]
        return float(np.sqrt(np.einsum("i,i->", delta, delta)))

    def pairwise_matrix(self) -> np.ndarray:
        """Chunk-vectorized full distance matrix.

        Each chunk evaluates the same ``sqrt(einsum((a-b)**2))`` expression as
        :meth:`distances_from`, contracting over the (small) coordinate axis
        in the same order, so every row is bit-for-bit the row
        ``distances_from`` would return: an instance saved through
        :func:`~repro.core.serialization.instance_to_dict`, which stores this
        matrix, reads the same distances.
        """
        n, d = self._coords.shape
        matrix = np.empty((n, n), dtype=np.float64)
        # Cap the (chunk, n, d) difference tensor at ~8M elements (~64 MB).
        chunk = max(1, (8 << 20) // max(n * d, 1))
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            delta = self._coords[None, :, :] - self._coords[start:stop, None, :]
            np.sqrt(np.einsum("bij,bij->bi", delta, delta), out=matrix[start:stop])
        return matrix
