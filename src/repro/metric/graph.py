"""Shortest-path metric of a weighted graph.

The introduction of the paper motivates OMFLP with a service provider placing
service instances in a *network infrastructure*; the natural metric for that
scenario is the shortest-path distance of the network graph.  Distances are
computed once, at construction, with scipy's sparse-graph Dijkstra routine;
the dense result is the matrix of an
:class:`~repro.metric.matrix.ExplicitMetric`, so the per-request hot path is
a plain row lookup.
"""

from __future__ import annotations

from typing import Dict, Hashable

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.exceptions import InvalidMetricError
from repro.metric.matrix import ExplicitMetric

__all__ = ["GraphMetric"]


class GraphMetric(ExplicitMetric):
    """Finite metric given by shortest-path distances of a weighted graph.

    Parameters
    ----------
    graph:
        A connected :class:`networkx.Graph`.  Edge weights are taken from the
        ``weight`` attribute (default 1.0 per edge).
    weight:
        Name of the edge attribute holding the edge length.
    """

    def __init__(self, graph: nx.Graph, *, weight: str = "weight") -> None:
        if graph.number_of_nodes() == 0:
            raise InvalidMetricError("the graph must contain at least one node")
        if not nx.is_connected(graph):
            raise InvalidMetricError(
                "the graph must be connected so that all distances are finite"
            )
        self._nodes = list(graph.nodes())
        self._node_index: Dict[Hashable, int] = {node: i for i, node in enumerate(self._nodes)}
        n = len(self._nodes)

        rows, cols, data = [], [], []
        for u, v, attributes in graph.edges(data=True):
            length = float(attributes.get(weight, 1.0))
            if length < 0:
                raise InvalidMetricError(f"edge ({u!r}, {v!r}) has negative weight {length}")
            i, j = self._node_index[u], self._node_index[v]
            rows.extend((i, j))
            cols.extend((j, i))
            data.extend((length, length))
        adjacency = csr_matrix((data, (rows, cols)), shape=(n, n))
        matrix = shortest_path(adjacency, method="D", directed=False)
        if not np.all(np.isfinite(matrix)):
            raise InvalidMetricError("the graph metric contains infinite distances")
        super().__init__(matrix)

    @property
    def nodes(self) -> list:
        """Original graph nodes in point-index order."""
        return list(self._nodes)

    def point_of_node(self, node: Hashable) -> int:
        """Return the point index of a graph node."""
        try:
            return self._node_index[node]
        except KeyError as error:
            raise InvalidMetricError(f"unknown graph node {node!r}") from error
