"""Abstract facility construction cost function ``f^sigma_m``."""

from __future__ import annotations

import abc
from typing import FrozenSet, Iterable, Sequence

import numpy as np

from repro.exceptions import InvalidCostFunctionError

__all__ = ["FacilityCostFunction"]

Configuration = FrozenSet[int]


class FacilityCostFunction(abc.ABC):
    """Construction cost of opening a facility with configuration ``sigma`` at point ``m``.

    Commodities are integers ``0, ..., num_commodities - 1``; a configuration
    is a (frozen) set of commodities.  Implementations must be deterministic:
    the same ``(point, configuration)`` always yields the same cost, because
    the online algorithms repeatedly re-evaluate costs while deciding.
    """

    def __init__(self, num_commodities: int) -> None:
        if num_commodities <= 0:
            raise InvalidCostFunctionError(
                f"num_commodities must be positive, got {num_commodities}"
            )
        self._num_commodities = int(num_commodities)
        self._full_set = frozenset(range(self._num_commodities))

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cost(self, point: int, configuration: Iterable[int]) -> float:
        """Return ``f^sigma_m`` for ``m = point`` and ``sigma = configuration``.

        The empty configuration always costs 0 (no facility is built).
        """

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    @property
    def num_commodities(self) -> int:
        """Size of the commodity universe ``|S|``."""
        return self._num_commodities

    @property
    def full_set(self) -> Configuration:
        """The full commodity set ``S``."""
        return self._full_set

    def normalize_configuration(self, configuration: Iterable[int]) -> Configuration:
        """Validate and freeze a configuration.

        One subset test against ``S`` checks the ints; only a configuration
        that fails it is walked, to name its first commodity out of range.
        """
        config = frozenset(map(int, configuration))
        if not config <= self._full_set:
            for e in config:
                if not 0 <= e < self._num_commodities:
                    raise InvalidCostFunctionError(
                        f"commodity {e} out of range [0, {self._num_commodities})"
                    )
        return config

    def singleton_cost(self, point: int, commodity: int) -> float:
        """Cost of a *small* facility offering only ``commodity`` at ``point``."""
        return self.cost(point, (commodity,))

    def full_cost(self, point: int) -> float:
        """Cost of a *large* facility offering all of ``S`` at ``point``."""
        return self.cost(point, self._full_set)

    def costs_over_points(self, configuration: Iterable[int], points: Sequence[int]) -> np.ndarray:
        """Vectorized ``f^sigma_m`` over several points (default: Python loop).

        Subclasses whose cost factors into ``point_scale[m] * shape(|sigma|)``
        override this with a single numpy expression; the generic fallback is
        only used by validators and small offline solvers.
        """
        config = self.normalize_configuration(configuration)
        return np.array([self.cost(point, config) for point in points], dtype=np.float64)

    def per_commodity_full_cost(self, point: int) -> float:
        """``f^S_m / |S|`` — the right-hand side of Condition 1."""
        return self.full_cost(point) / float(self._num_commodities)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_commodities={self._num_commodities})"
