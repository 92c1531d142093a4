"""Metric space given by an explicit distance matrix.

The one matrix-backed space: the graph, tree and single-point spaces are
subclasses that differ only in how they build the matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import InvalidMetricError
from repro.metric.base import MetricSpace

__all__ = ["ExplicitMetric"]


class ExplicitMetric(MetricSpace):
    """A finite metric space defined by its full pairwise distance matrix.

    The matrix is read-only and the space's own: a caller's writeable array
    is copied once, so no write through another reference changes a
    distance.  Rows and :meth:`pairwise_matrix` are read-only views of it,
    and a column (:meth:`distances_to`) is a copy sliced from it, so the
    exact-transpose contract holds even for a matrix that is only symmetric
    up to floating-point noise.

    Parameters
    ----------
    matrix:
        Square array-like of shape ``(n, n)``.  The constructor symmetrizes
        nothing and validates nothing by default; call :meth:`validate` (or
        pass ``validate=True``) to check the metric axioms.
    labels:
        Optional human-readable point labels (used only for reporting).
    validate:
        When true, run the axiom check immediately.
    """

    def __init__(
        self,
        matrix: Sequence[Sequence[float]],
        *,
        labels: Optional[Sequence[str]] = None,
        validate: bool = False,
    ) -> None:
        array = np.asarray(matrix, dtype=np.float64)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise InvalidMetricError(
                f"distance matrix must be square, got shape {array.shape}"
            )
        if array.shape[0] == 0:
            raise InvalidMetricError("a metric space must contain at least one point")
        # Copy the caller's array, or a view of other data, unless it is read-only.
        if array.flags.writeable and (array is matrix or not array.flags.owndata):
            array = array.copy()
        self._matrix = np.ascontiguousarray(array)
        self._matrix.flags.writeable = False
        if labels is not None and len(labels) != array.shape[0]:
            raise InvalidMetricError(
                f"got {len(labels)} labels for {array.shape[0]} points"
            )
        self.labels = list(labels) if labels is not None else None
        if validate:
            self.validate()

    @property
    def num_points(self) -> int:
        return int(self._matrix.shape[0])

    def distances_from(self, point: int) -> np.ndarray:
        self._check_point(point)
        return self._matrix[point]

    def distance(self, a: int, b: int) -> float:
        self._check_point(a)
        self._check_point(b)
        return float(self._matrix[a, b])

    def distances_to(self, point: int) -> np.ndarray:
        self._check_point(point)
        return np.ascontiguousarray(self._matrix[:, point])

    def pairwise_matrix(self) -> np.ndarray:
        return self._matrix

    @staticmethod
    def from_points_and_metric(num_points: int, distance_fn) -> "ExplicitMetric":
        """Materialize a metric from a callable ``distance_fn(i, j)``.

        Always an :class:`ExplicitMetric`, also when called on a subclass.
        """
        if num_points <= 0:
            raise InvalidMetricError("num_points must be positive")
        matrix = np.zeros((num_points, num_points), dtype=np.float64)
        for i in range(num_points):
            for j in range(i + 1, num_points):
                value = float(distance_fn(i, j))
                matrix[i, j] = value
                matrix[j, i] = value
        return ExplicitMetric(matrix)
