"""The stock component registries of the library.

Five registries index everything a :class:`~repro.api.spec.RunSpec` can name:

* :data:`METRICS` — metric-space factories (``"uniform-line"``,
  ``"random-euclidean"``, ``"explicit"``, ...);
* :data:`COSTS` — facility cost-function families (``"power"``,
  ``"linear"``, ``"weighted-concave"``, ...);
* :data:`WORKLOADS` — synthetic instance generators (``"uniform"``,
  ``"clustered"``, ``"zipf"``, ``"service-network"``);
* :data:`ALGORITHMS` — the online algorithms of the paper and its baselines;
* :data:`SOLVERS` — the offline reference solvers.

Third-party code can extend any of them with the decorator form::

    from repro.api import ALGORITHMS

    @ALGORITHMS.register("my-heuristic")
    def _build(**params):
        return MyHeuristic(**params)

The cost keys deliberately match the ``kind`` strings of
:mod:`repro.core.serialization` (``"power"``, ``"linear"``, ``"constant"``,
``"adversary"``) so that a serialized instance's cost block doubles as a valid
``RunSpec`` cost spec.
"""

from __future__ import annotations

from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.offline.local_search import LocalSearchSolver
from repro.algorithms.offline.planted import PlantedSolver
from repro.algorithms.online.always_large import AlwaysLargeGreedy
from repro.algorithms.online.fotakis_ofl import FotakisOFLAlgorithm
from repro.algorithms.online.meyerson_ofl import MeyersonOFLAlgorithm
from repro.algorithms.online.no_prediction import NoPredictionGreedy
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import PerCommodityAlgorithm
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.algorithms.online.threshold import ThresholdPDAlgorithm
from repro.api.registry import Registry
from repro.costs.count_based import AdversaryCost, ConstantCost, LinearCost, PowerCost
from repro.costs.general import PerPointScaledCost, TabulatedCost, WeightedConcaveCost
from repro.costs.ordered import OrderedLinearCost
from repro.metric.factories import (
    random_euclidean_metric,
    random_graph_metric,
    random_grid_metric,
    random_line_metric,
    random_tree_metric,
    uniform_line_metric,
)
from repro.metric.matrix import ExplicitMetric
from repro.metric.single_point import SinglePointMetric
from repro.workloads.clustered import clustered_workload
from repro.workloads.service_network import service_network_workload
from repro.workloads.uniform import uniform_workload
from repro.workloads.zipf import zipf_workload

__all__ = ["METRICS", "COSTS", "WORKLOADS", "ALGORITHMS", "SOLVERS"]


# ----------------------------------------------------------------------
# Metric spaces
# ----------------------------------------------------------------------
METRICS = Registry("metric")
METRICS.add("uniform-line", uniform_line_metric)
METRICS.add("random-line", random_line_metric)
METRICS.add("random-euclidean", random_euclidean_metric)
METRICS.add("random-grid", random_grid_metric)
METRICS.add("random-graph", random_graph_metric)
METRICS.add("random-tree", random_tree_metric)
METRICS.add("explicit", ExplicitMetric)
METRICS.add("single-point", SinglePointMetric)


# ----------------------------------------------------------------------
# Facility cost functions
# ----------------------------------------------------------------------
COSTS = Registry("cost")
COSTS.add("power", PowerCost)
COSTS.add("linear", LinearCost)
COSTS.add("constant", ConstantCost)
COSTS.add("adversary", AdversaryCost)
COSTS.add("weighted-concave", WeightedConcaveCost)
COSTS.add("tabulated", TabulatedCost)
COSTS.add("ordered-linear", OrderedLinearCost)
COSTS.add("per-point-scaled", PerPointScaledCost)


# ----------------------------------------------------------------------
# Workload generators (each returns a GeneratedWorkload)
# ----------------------------------------------------------------------
# Strict parameters: a typo'd keyword in a declarative workload spec raises
# ReproError naming the offending key (instead of a generator-internal
# TypeError); the scenario registry (repro.scenarios) does the same.
WORKLOADS = Registry("workload", strict_params=True)
WORKLOADS.add("uniform", uniform_workload)
WORKLOADS.add("clustered", clustered_workload)
WORKLOADS.add("zipf", zipf_workload)
WORKLOADS.add("service-network", service_network_workload)


# ----------------------------------------------------------------------
# Online algorithms — keys equal each algorithm's ``name`` attribute so
# that result rows and spec keys agree.
# ----------------------------------------------------------------------
ALGORITHMS = Registry("online algorithm", strict_params=True)
ALGORITHMS.add("pd-omflp", PDOMFLPAlgorithm)
ALGORITHMS.add("rand-omflp", RandOMFLPAlgorithm)
ALGORITHMS.add("threshold-pd", ThresholdPDAlgorithm)
ALGORITHMS.add("fotakis-ofl", FotakisOFLAlgorithm)
ALGORITHMS.add("meyerson-ofl", MeyersonOFLAlgorithm)
ALGORITHMS.add("per-commodity-fotakis", lambda: PerCommodityAlgorithm("fotakis"))
ALGORITHMS.add("per-commodity-meyerson", lambda: PerCommodityAlgorithm("meyerson"))
ALGORITHMS.add("no-prediction-greedy", NoPredictionGreedy)
ALGORITHMS.add("always-large-greedy", AlwaysLargeGreedy)


# ----------------------------------------------------------------------
# Offline solvers
# ----------------------------------------------------------------------
SOLVERS = Registry("offline solver")
SOLVERS.add("brute-force", BruteForceSolver)
SOLVERS.add("greedy", GreedyOfflineSolver)
SOLVERS.add("local-search", LocalSearchSolver)
SOLVERS.add("planted", PlantedSolver)
