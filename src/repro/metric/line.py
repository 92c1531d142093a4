"""Points on the real line.

The line metric is the simplest non-trivial metric in the paper: the lower
bound of Corollary 3 already holds "even on a line metric", and the classical
Fotakis lower bound for online facility location is a line construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import InvalidMetricError
from repro.metric.base import MetricSpace

__all__ = ["LineMetric"]


class LineMetric(MetricSpace):
    """Finite metric induced by coordinates on the real line.

    Parameters
    ----------
    coordinates:
        One coordinate per point.  Points are *not* required to be sorted or
        distinct; duplicates model co-located facility locations.
    """

    def __init__(self, coordinates: Sequence[float]) -> None:
        coords = np.asarray(coordinates, dtype=np.float64).ravel()
        if coords.size == 0:
            raise InvalidMetricError("a line metric needs at least one point")
        if not np.all(np.isfinite(coords)):
            raise InvalidMetricError("line coordinates must be finite")
        self._coords = np.ascontiguousarray(coords)

    @property
    def num_points(self) -> int:
        return int(self._coords.size)

    @property
    def coordinates(self) -> np.ndarray:
        """Read-only view of the point coordinates."""
        view = self._coords.view()
        view.flags.writeable = False
        return view

    def distances_from(self, point: int) -> np.ndarray:
        self._check_point(point)
        return np.abs(self._coords - self._coords[point])

    def pairwise_matrix(self) -> np.ndarray:
        return np.abs(self._coords[:, None] - self._coords[None, :])

    def leftmost(self) -> int:
        """Index of the leftmost point (ties broken by index)."""
        return int(np.argmin(self._coords))

    def rightmost(self) -> int:
        """Index of the rightmost point (ties broken by index)."""
        return int(np.argmax(self._coords))
