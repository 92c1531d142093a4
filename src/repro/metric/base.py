"""Abstract finite metric space.

Design notes
------------
The OMFLP algorithms evaluate, for every arriving request, quantities of the
form ``(bid_j - d(m, j))_+`` summed over earlier requests ``j`` and over all
candidate facility points ``m``.  The hot path therefore needs *rows* of the
distance matrix (``distances_from``) as contiguous numpy arrays rather than
scalar ``distance(i, j)`` calls; following the scientific-Python optimization
guide we vectorize over points and never build the full pairwise matrix on
the hot path.  A space keeps only what it is built from (its points, or the
matrix of a matrix-backed space); ``pairwise_matrix`` computes the matrix
each time it is asked for and keeps nothing.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidMetricError
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["MetricSpace"]


class MetricSpace(abc.ABC):
    """A finite metric space over points ``0, ..., num_points - 1``.

    Subclasses must implement :meth:`distances_from`; the convenience
    queries are derived from it.  The scalar :meth:`distance` must equal
    ``distances_from(a)[b]`` bit for bit (pinned for every space by
    ``tests/test_metric_properties.py``).  The default reads one row; the
    Euclidean space overrides it with an O(d) form of the row's own formula,
    and matrix-backed spaces read the entry.
    """

    #: Absolute tolerance used when validating the metric axioms.
    _AXIOM_TOLERANCE = 1e-9

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_points(self) -> int:
        """Number of points in the space."""

    @abc.abstractmethod
    def distances_from(self, point: int) -> np.ndarray:
        """Return the distances from ``point`` to every point as a float64 array.

        The returned array has shape ``(num_points,)``; implementations may
        return an internal buffer, so callers must not mutate it.
        """

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> float:
        """Distance between two points, bit-for-bit ``distances_from(a)[b]``."""
        self._check_point(a)
        self._check_point(b)
        return float(self.distances_from(a)[b])

    def distances_between(self, point: int, targets: Sequence[int]) -> np.ndarray:
        """Distances from ``point`` to each point in ``targets`` (vectorized)."""
        self._check_point(point)
        if len(targets) == 0:
            return np.empty(0, dtype=np.float64)
        target_array = np.asarray(targets, dtype=np.intp)
        if target_array.min() < 0 or target_array.max() >= self.num_points:
            raise InvalidMetricError(
                f"target points out of range [0, {self.num_points}): {targets!r}"
            )
        return self.distances_from(point)[target_array]

    def distances_to(self, point: int) -> np.ndarray:
        """Distances from every point *to* ``point`` (a pairwise-matrix column).

        The contract required by :mod:`repro.accel` is exactness:
        ``distances_to(p)[q]`` must be bit-for-bit equal to
        ``distances_from(q)[p]`` for every ``q``.  This default returns the
        row ``distances_from(point)``, which is exact for the coordinate-based
        spaces because their distance formulas are symmetric in IEEE
        arithmetic (``|a - b|`` and ``(a - b)**2`` are unchanged under operand
        swap).  Matrix-backed spaces slice the column instead, which holds
        even for matrices that are only symmetric up to floating-point noise;
        any other space with asymmetric rounding must override this method.
        """
        self._check_point(point)
        return self.distances_from(point)

    def nearest(self, point: int, candidates: Sequence[int]) -> Tuple[int, float]:
        """Return ``(candidate, distance)`` of the closest candidate to ``point``.

        Raises :class:`InvalidMetricError` when ``candidates`` is empty.
        """
        if len(candidates) == 0:
            raise InvalidMetricError("nearest() requires a non-empty candidate set")
        distances = self.distances_between(point, candidates)
        index = int(np.argmin(distances))
        return int(candidates[index]), float(distances[index])

    def nearest_distance(self, point: int, candidates: Sequence[int]) -> float:
        """Distance to the closest candidate, ``inf`` when there are none."""
        if len(candidates) == 0:
            return float("inf")
        return float(np.min(self.distances_between(point, candidates)))

    def pairwise_matrix(self) -> np.ndarray:
        """The full ``num_points x num_points`` distance matrix, built row by row."""
        n = self.num_points
        matrix = np.empty((n, n), dtype=np.float64)
        for i in range(n):
            matrix[i] = self.distances_from(i)
        return matrix

    def diameter(self) -> float:
        """Largest pairwise distance."""
        if self.num_points <= 1:
            return 0.0
        return float(self.pairwise_matrix().max())

    def points(self) -> range:
        """Iterable of all point indices."""
        return range(self.num_points)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, *, sample_triples: Optional[int] = None, rng: RandomState = None) -> None:
        """Check the metric axioms; raise :class:`InvalidMetricError` on violation.

        Checks non-negativity, the identity of indiscernibles on the diagonal,
        symmetry, and the triangle inequality.  For spaces with more than
        roughly 60 points the triangle inequality is checked on
        ``sample_triples`` random triples (default: ``20 * num_points``)
        rather than on all ``O(n^3)`` of them.
        """
        n = self.num_points
        if n <= 0:
            raise InvalidMetricError("a metric space must contain at least one point")
        matrix = self.pairwise_matrix()
        if matrix.shape != (n, n):
            raise InvalidMetricError(
                f"pairwise matrix has shape {matrix.shape}, expected {(n, n)}"
            )
        if not np.all(np.isfinite(matrix)):
            raise InvalidMetricError("distances must be finite")
        if np.any(matrix < -self._AXIOM_TOLERANCE):
            raise InvalidMetricError("distances must be non-negative")
        if np.any(np.abs(np.diag(matrix)) > self._AXIOM_TOLERANCE):
            raise InvalidMetricError("d(x, x) must be zero for every point")
        if np.any(np.abs(matrix - matrix.T) > self._AXIOM_TOLERANCE):
            raise InvalidMetricError("the distance matrix must be symmetric")
        self._validate_triangle_inequality(matrix, sample_triples, rng)

    def _validate_triangle_inequality(
        self,
        matrix: np.ndarray,
        sample_triples: Optional[int],
        rng: RandomState,
    ) -> None:
        n = self.num_points
        if n <= 60:
            # d(i, k) <= d(i, j) + d(j, k) for all i, j, k — fully vectorized:
            # matrix[i, :, None] + matrix[None, :, k] broadcast over j.
            via = matrix[:, :, None] + matrix[None, :, :]
            best_via = via.min(axis=1)
            if np.any(matrix > best_via + self._AXIOM_TOLERANCE):
                raise InvalidMetricError("triangle inequality violated")
            return
        generator = ensure_rng(rng)
        count = sample_triples if sample_triples is not None else 20 * n
        i = generator.integers(0, n, size=count)
        j = generator.integers(0, n, size=count)
        k = generator.integers(0, n, size=count)
        lhs = matrix[i, k]
        rhs = matrix[i, j] + matrix[j, k]
        if np.any(lhs > rhs + self._AXIOM_TOLERANCE):
            raise InvalidMetricError("triangle inequality violated (sampled check)")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_point(self, point: int) -> None:
        if not 0 <= point < self.num_points:
            raise InvalidMetricError(
                f"point {point} out of range [0, {self.num_points}) for {type(self).__name__}"
            )

    def __len__(self) -> int:
        return self.num_points

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_points={self.num_points})"
