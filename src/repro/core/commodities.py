"""The commodity universe ``S``.

Commodities are represented as integers ``0, ..., |S| - 1`` throughout the
library; this class adds optional human-readable names (e.g. service names in
the introduction's provider scenario), validation and sampling helpers.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError
from repro.utils.rng import RandomState, choose_distinct, ensure_rng

__all__ = ["CommodityUniverse"]


class CommodityUniverse:
    """The finite set ``S`` of commodities (services).

    Parameters
    ----------
    size:
        Number of commodities ``|S|``; must be positive.
    names:
        Optional list of ``size`` distinct human-readable names.
    """

    def __init__(self, size: int, *, names: Optional[Sequence[str]] = None) -> None:
        if size <= 0:
            raise InvalidInstanceError(f"|S| must be positive, got {size}")
        self._size = int(size)
        if names is not None:
            if len(names) != size:
                raise InvalidInstanceError(
                    f"got {len(names)} names for {size} commodities"
                )
            if len(set(names)) != len(names):
                raise InvalidInstanceError("commodity names must be distinct")
            self._names: Optional[List[str]] = list(names)
            self._index_of_name = {name: i for i, name in enumerate(self._names)}
        else:
            self._names = None
            self._index_of_name = {}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """``|S|``."""
        return self._size

    @property
    def full_set(self) -> FrozenSet[int]:
        """The full commodity set ``S`` as a frozenset of indices."""
        return frozenset(range(self._size))

    def name_of(self, commodity: int) -> str:
        """Human-readable name of a commodity (falls back to ``s<i>``)."""
        self.check(commodity)
        if self._names is not None:
            return self._names[commodity]
        return f"s{commodity}"

    def index_of(self, name: str) -> int:
        """Commodity index of a named commodity."""
        if name in self._index_of_name:
            return self._index_of_name[name]
        if name.startswith("s") and name[1:].isdigit():
            index = int(name[1:])
            self.check(index)
            return index
        raise InvalidInstanceError(f"unknown commodity name {name!r}")

    def check(self, commodity: int) -> int:
        """Validate a commodity index and return it."""
        if not 0 <= commodity < self._size:
            raise InvalidInstanceError(
                f"commodity {commodity} out of range [0, {self._size})"
            )
        return int(commodity)

    def subset(self, commodities: Iterable[int]) -> FrozenSet[int]:
        """Validate and freeze a commodity subset."""
        return frozenset(self.check(int(e)) for e in commodities)

    def sample_subset(
        self,
        size: int,
        *,
        rng: RandomState = None,
        weights: Optional[Sequence[float]] = None,
    ) -> FrozenSet[int]:
        """Sample a subset of exactly ``size`` distinct commodities.

        Unweighted subsets come from :func:`~repro.utils.rng.choose_distinct`,
        so a one-commodity demand costs one ``integers`` draw and leaves the
        generator where ``choice(replace=False)`` would.  ``weights`` gives an
        (unnormalized) popularity per commodity; sampling is then without
        replacement proportional to the weights, which is how the Zipf
        workload generates skewed demands.
        """
        if not 1 <= size <= self._size:
            raise InvalidInstanceError(
                f"subset size must lie in [1, {self._size}], got {size}"
            )
        generator = ensure_rng(rng)
        if weights is None:
            return frozenset(choose_distinct(generator, self._size, size))
        weight_array = np.asarray(weights, dtype=np.float64)
        if weight_array.shape != (self._size,):
            raise InvalidInstanceError(
                f"weights must have length {self._size}, got {weight_array.shape}"
            )
        if np.any(weight_array < 0) or weight_array.sum() <= 0:
            raise InvalidInstanceError("weights must be non-negative and not all zero")
        probabilities = weight_array / weight_array.sum()
        members = generator.choice(self._size, size=size, replace=False, p=probabilities)
        return frozenset(int(e) for e in members)

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(range(self._size))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommodityUniverse(size={self._size})"
