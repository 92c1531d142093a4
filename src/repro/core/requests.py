"""Requests and request sequences.

A request ``r`` is located at a point of the metric space and demands a set
``s_r ⊆ S`` of commodities.  In the online problem the requests arrive one at
a time in the order of a :class:`RequestSequence`; decisions made on arrival
are irrevocable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.exceptions import InvalidInstanceError

__all__ = ["Request", "RequestSequence"]


@dataclass(frozen=True, init=False)
class Request:
    """A single request.

    Attributes
    ----------
    index:
        Arrival position in the sequence (0-based).
    point:
        Index of the metric-space point where the request is located.
    commodities:
        The demanded commodity set ``s_r`` (non-empty).

    A session builds one per arrival, so the constructor is written out: it
    runs the checks a ``__post_init__`` would and stores the fields with one
    ``__dict__.update``, where the generated frozen ``__init__`` pays an
    ``object.__setattr__`` call per field.  (One ``update``, not a store per
    key: on CPython 3.11 an instance dict filled key by key makes every later
    attribute read about four times slower.)  Everything else stays
    generated: ``==``, ``hash``, ``repr``, :func:`dataclasses.fields` and
    :func:`dataclasses.replace`, pickling and ``FrozenInstanceError`` on
    assignment.
    """

    index: int
    point: int
    commodities: FrozenSet[int]

    def __init__(self, index: int, point: int, commodities: FrozenSet[int]) -> None:
        if index < 0:
            raise InvalidInstanceError(f"request index must be non-negative, got {index}")
        if point < 0:
            raise InvalidInstanceError(f"request point must be non-negative, got {point}")
        if not isinstance(commodities, frozenset):
            commodities = frozenset(commodities)
        if not commodities:
            raise InvalidInstanceError(f"request {index} demands no commodities")
        self.__dict__.update(index=index, point=point, commodities=commodities)

    @property
    def num_commodities(self) -> int:
        """``|s_r|``."""
        return len(self.commodities)

    def demands(self, commodity: int) -> bool:
        """Whether the request demands the given commodity."""
        return commodity in self.commodities


class RequestSequence:
    """An ordered sequence of requests (the online input).

    The sequence validates that request indices are consecutive arrival
    positions and provides the derived views used by algorithms and
    experiments (requests per commodity, prefix subsequences, re-indexing).
    """

    def __init__(self, requests: Iterable[Request]) -> None:
        self._requests: List[Request] = list(requests)
        for expected, request in enumerate(self._requests):
            if request.index != expected:
                raise InvalidInstanceError(
                    f"request at position {expected} has index {request.index}; "
                    "indices must equal arrival positions"
                )

    @classmethod
    def from_tuples(
        cls, items: Iterable[Tuple[int, Iterable[int]]]
    ) -> "RequestSequence":
        """Build a sequence from ``(point, commodities)`` tuples in arrival order."""
        requests = [
            Request(index=i, point=int(point), commodities=frozenset(int(e) for e in commodities))
            for i, (point, commodities) in enumerate(items)
        ]
        return cls(requests)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    @property
    def requests(self) -> List[Request]:
        return list(self._requests)

    def points(self) -> List[int]:
        """Request locations in arrival order."""
        return [r.point for r in self._requests]

    def commodities_used(self) -> FrozenSet[int]:
        """Union of all demanded commodity sets."""
        union: set = set()
        for request in self._requests:
            union |= request.commodities
        return frozenset(union)

    def requests_demanding(self, commodity: int) -> List[Request]:
        """All requests whose demand set contains ``commodity`` (``R(e)`` in the paper)."""
        return [r for r in self._requests if commodity in r.commodities]

    def total_demand(self) -> int:
        """``sum_r |s_r|`` — the sequence length after the per-commodity split of §1.1."""
        return sum(r.num_commodities for r in self._requests)

    def prefix(self, length: int) -> "RequestSequence":
        """The first ``length`` requests as a new sequence."""
        if not 0 <= length <= len(self._requests):
            raise InvalidInstanceError(
                f"prefix length {length} out of range [0, {len(self._requests)}]"
            )
        return RequestSequence(self._requests[:length])

    def reordered(self, order: Sequence[int]) -> "RequestSequence":
        """Return the same multiset of requests in a different arrival order.

        Used by the arrival-order workload models (adversarial vs random
        order): the request contents stay identical but indices are rewritten
        to the new positions.
        """
        if sorted(order) != list(range(len(self._requests))):
            raise InvalidInstanceError("order must be a permutation of the request positions")
        reordered = [
            Request(index=i, point=self._requests[j].point, commodities=self._requests[j].commodities)
            for i, j in enumerate(order)
        ]
        return RequestSequence(reordered)

    def split_per_commodity(self) -> "RequestSequence":
        """Replace each request by ``|s_r|`` single-commodity requests (Section 1.1).

        This realizes the paper's "different cost model" reduction: counting
        connection cost per commodity is simulated by splitting requests.
        """
        singles: List[Request] = []
        for request in self._requests:
            for commodity in sorted(request.commodities):
                singles.append(
                    Request(index=len(singles), point=request.point, commodities=frozenset((commodity,)))
                )
        return RequestSequence(singles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RequestSequence(n={len(self._requests)})"
