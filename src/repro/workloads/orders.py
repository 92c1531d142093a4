"""Arrival-order models.

Section 1.2 of the paper points out that Meyerson's algorithm performs much
better when the adversary cannot fully control the arrival order (random order
gives O(1), and gradually weakening the adversary interpolates, citing Lang
2018).  These helpers produce reordered copies of an instance so experiments
can compare adversarial-ish and random arrival orders for the same multiset of
requests.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.core.instance import Instance
from repro.metric.base import MetricSpace
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["random_order", "adversarial_order", "sparse_first_order"]


def random_order(instance: Instance, *, rng: RandomState = None) -> Instance:
    """The same requests in a uniformly random arrival order."""
    generator = ensure_rng(rng)
    order = list(generator.permutation(instance.num_requests))
    return instance.reordered([int(i) for i in order])


def sparse_first_order(
    metric: MetricSpace, requests: Sequence[Tuple[int, FrozenSet[int]]]
) -> List[int]:
    """Positions of ``(point, commodities)`` requests, sparse demands first.

    Sorts by (ascending demand size, descending distance from the most
    frequent request point, position).  The position makes every key unique,
    so the reversed list is the dense-first order.
    """
    points = np.asarray([point for point, _ in requests], dtype=np.intp)
    modal = int(np.argmax(np.bincount(points, minlength=metric.num_points)))
    row = metric.distances_from(modal)
    keys = sorted(
        (len(commodities), -float(row[point]), index)
        for index, (point, commodities) in enumerate(requests)
    )
    return [index for _, _, index in keys]


def adversarial_order(instance: Instance) -> Instance:
    """A heuristic adversarial order: sparse demands first, far points first.

    The classical hard sequences reveal little information early (isolated,
    small demands) and concentrate mass late; this reordering
    (:func:`sparse_first_order`) empirically degrades the online algorithms
    relative to random order without requiring adaptivity.
    """
    requests = [(r.point, r.commodities) for r in instance.requests]
    return instance.reordered(sparse_first_order(instance.metric, requests))
