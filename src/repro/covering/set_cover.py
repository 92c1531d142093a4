"""Greedy weighted set cover.

Ravi and Sinha (2004) showed that the offline multi-commodity facility
location problem inherits the Ω(log |S|) hardness of weighted set cover and,
conversely, that greedy-set-cover ideas yield an O(log |S|) approximation.
The offline greedy reference solver (:mod:`repro.algorithms.offline.greedy`)
follows the same greedy ratio rule on its own (point, configuration)
candidates and does not call this module, which is a substrate checked
directly by the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Mapping, Set, Tuple

from repro.exceptions import InvalidInstanceError
from repro.utils.maths import harmonic_number

__all__ = ["SetCoverInstance", "greedy_set_cover"]


@dataclass(frozen=True)
class SetCoverInstance:
    """A weighted set cover instance.

    Attributes
    ----------
    universe:
        The elements to be covered.
    sets:
        Mapping from a set identifier to the elements it covers.
    weights:
        Mapping from a set identifier to its non-negative weight.
    """

    universe: FrozenSet[Hashable]
    sets: Mapping[Hashable, FrozenSet[Hashable]]
    weights: Mapping[Hashable, float]

    def __post_init__(self) -> None:
        for key, members in self.sets.items():
            if key not in self.weights:
                raise InvalidInstanceError(f"set {key!r} has no weight")
            if self.weights[key] < 0:
                raise InvalidInstanceError(f"set {key!r} has negative weight")
        covered = frozenset().union(*self.sets.values()) if self.sets else frozenset()
        if not self.universe <= covered:
            missing = self.universe - covered
            raise InvalidInstanceError(
                f"elements {sorted(map(repr, missing))} cannot be covered by any set"
            )

    def greedy_bound(self, optimum: float) -> float:
        """The classical ``H_d``-approximation guarantee relative to ``optimum``."""
        largest = max((len(members) for members in self.sets.values()), default=1)
        return harmonic_number(largest) * optimum


def greedy_set_cover(instance: SetCoverInstance) -> Tuple[List[Hashable], float]:
    """Greedy weighted set cover: repeatedly pick the cheapest-per-new-element set.

    Returns the chosen set identifiers (in pick order) and the total weight.
    """
    remaining: Set[Hashable] = set(instance.universe)
    chosen: List[Hashable] = []
    total = 0.0
    while remaining:
        best_key, best_ratio, best_gain = None, float("inf"), 0
        for key, members in instance.sets.items():
            gain = len(members & remaining)
            if gain == 0:
                continue
            weight = instance.weights[key]
            ratio = weight / gain
            if ratio < best_ratio or (ratio == best_ratio and gain > best_gain):
                best_key, best_ratio, best_gain = key, ratio, gain
        if best_key is None:
            raise InvalidInstanceError("greedy set cover ran out of useful sets")
        chosen.append(best_key)
        total += instance.weights[best_key]
        remaining -= instance.sets[best_key]
    return chosen, total
