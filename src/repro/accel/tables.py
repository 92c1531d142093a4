"""Per-configuration tables of one fixed environment, built once and shared.

The paper's online model fixes the metric and the construction cost before
the first request (Section 1.1), so every table derived from them alone is a
pure function of ``(metric, cost, configuration)``:

* the power-of-two cost classes of a configuration with their memoized
  class-distance columns (:class:`~repro.costs.classes.CostClassIndex`), and
* the configuration's cost vector ``f^sigma_m`` over all points.

:class:`EnvironmentTables` holds them for one
:class:`~repro.core.instance.Instance` (``instance.tables``), so the tables
live exactly as long as the environment does.  RAND-OMFLP reads the cost
classes, PD-OMFLP the cost vectors, and the per-commodity baseline's
single-commodity helpers the tables of their singleton configurations.  Every
table is built on first use and then handed out as is: an algorithm prepared
on the same instance again, as a reloaded service session is, reads the
tables the first run built.  Nothing here depends on requests, facilities or
random draws, so the memo is never serialized and sharing it changes no bit
of any run.

A table is keyed by its configuration exactly as the caller passes it, a
tuple or a frozenset of commodities: a lookup then hashes a one-element
tuple instead of building a frozenset per request.  The builders normalize
the configuration themselves, so two forms of one commodity set get equal
tables; each caller passes one form per configuration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple, Union

import numpy as np

from repro.costs.base import FacilityCostFunction
from repro.costs.classes import CostClassIndex
from repro.metric.base import MetricSpace

__all__ = ["EnvironmentTables"]

#: A configuration as the tables' callers pass it.
Configuration = Union[Tuple[int, ...], FrozenSet[int]]


class EnvironmentTables:
    """Lazily filled tables of one ``(metric, cost)`` pair, per configuration."""

    def __init__(self, metric: MetricSpace, cost_function: FacilityCostFunction) -> None:
        self._metric = metric
        self._cost_function = cost_function
        self._cost_classes: Dict[Configuration, CostClassIndex] = {}
        self._cost_vectors: Dict[Configuration, np.ndarray] = {}

    def cost_classes(self, configuration: Configuration) -> CostClassIndex:
        """The power-of-two cost classes of ``configuration`` and their distance queries."""
        index = self._cost_classes.get(configuration)
        if index is None:
            index = CostClassIndex(self._metric, self._cost_function, configuration)
            self._cost_classes[configuration] = index
        return index

    def cost_vector(self, configuration: Configuration) -> np.ndarray:
        """``f^sigma_m`` over all points, read-only: a stray write raises."""
        vector = self._cost_vectors.get(configuration)
        if vector is None:
            points = list(range(self._metric.num_points))
            vector = self._cost_function.costs_over_points(configuration, points)
            vector.flags.writeable = False
            self._cost_vectors[configuration] = vector
        return vector
