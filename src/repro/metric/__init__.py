"""Finite metric spaces used as the ground set of OMFLP instances.

The paper (Section 1.1) places requests and facilities on the points of a
finite metric space ``M``.  This subpackage provides a small hierarchy of
metric spaces with a uniform, numpy-vectorized interface:

* :class:`~repro.metric.base.MetricSpace` — the abstract interface
  (``distance``, vectorized ``distances_from``, nearest-point queries and
  axiom validation).
* :class:`~repro.metric.matrix.ExplicitMetric` — an arbitrary metric given by
  its full distance matrix; the graph, tree and single-point spaces below
  are its subclasses.
* :class:`~repro.metric.line.LineMetric` — points on the real line (the
  metric used by the paper's lower bounds, Corollary 3).
* :class:`~repro.metric.euclidean.EuclideanMetric` — points in R^d with the
  Euclidean distance.
* :class:`~repro.metric.grid.GridMetric` — lattice points under the L1
  (Manhattan) distance, a common stand-in for network topologies.
* :class:`~repro.metric.graph.GraphMetric` — shortest-path distances of a
  weighted graph (the "network infrastructure" of the paper's introduction).
* :class:`~repro.metric.tree.TreeMetric` — shortest-path distances of a
  weighted tree (hierarchical topologies).
* :class:`~repro.metric.single_point.SinglePointMetric` — the degenerate
  one-point space on which the Theorem-2 lower bound already holds.

Random generators for all of these live in :mod:`repro.metric.factories`.
"""

from repro.metric.base import MetricSpace
from repro.metric.euclidean import EuclideanMetric
from repro.metric.factories import (
    random_euclidean_metric,
    random_graph_metric,
    random_grid_metric,
    random_line_metric,
    random_tree_metric,
    uniform_line_metric,
)
from repro.metric.graph import GraphMetric
from repro.metric.grid import GridMetric
from repro.metric.line import LineMetric
from repro.metric.matrix import ExplicitMetric
from repro.metric.single_point import SinglePointMetric
from repro.metric.tree import TreeMetric

__all__ = [
    "MetricSpace",
    "ExplicitMetric",
    "LineMetric",
    "EuclideanMetric",
    "GridMetric",
    "GraphMetric",
    "TreeMetric",
    "SinglePointMetric",
    "uniform_line_metric",
    "random_line_metric",
    "random_euclidean_metric",
    "random_grid_metric",
    "random_graph_metric",
    "random_tree_metric",
]
