"""Online and offline algorithms for the OMFLP.

Online algorithms (Sections 2–4 of the paper and its baselines):

* :class:`~repro.algorithms.online.pd_omflp.PDOMFLPAlgorithm` — the
  deterministic primal–dual algorithm of Section 3 (Algorithm 1),
  O(√|S|·log n)-competitive under Condition 1 (Theorem 4).
* :class:`~repro.algorithms.online.threshold.ThresholdPDAlgorithm` — PD-OMFLP
  with a configurable "large" configuration (the closing-remarks variant that
  excludes heavy commodities; also used by the Theorem-18 cost-class study).
* :class:`~repro.algorithms.online.rand_omflp.RandOMFLPAlgorithm` — the
  randomized Meyerson-style algorithm of Section 4 (Algorithm 2),
  O(√|S|·log n / log log n)-competitive in expectation (Theorem 19).
* :class:`~repro.algorithms.online.per_commodity.PerCommodityAlgorithm` — the
  trivial O(|S|·log n / log log n) decomposition baseline of Section 1.3.
* :class:`~repro.algorithms.online.per_commodity.FotakisOFLAlgorithm` and
  :class:`~repro.algorithms.online.per_commodity.MeyersonOFLAlgorithm` — the
  single-commodity online facility location substrates the paper builds on:
  the decomposition baseline at ``|S| = 1``.
* :class:`~repro.algorithms.online.no_prediction.NoPredictionGreedy` and
  :class:`~repro.algorithms.online.always_large.AlwaysLargeGreedy` — greedy
  baselines that never/always predict, bracketing the design space the lower
  bound of Section 2 rules out.

Offline reference solvers (for measuring competitive ratios):

* :class:`~repro.algorithms.offline.brute_force.BruteForceSolver` — exact OPT
  on tiny instances.
* :class:`~repro.algorithms.offline.greedy.GreedyOfflineSolver` — greedy
  (set-cover flavoured) offline heuristic.
* :class:`~repro.algorithms.offline.local_search.LocalSearchSolver` — local
  search improvement over any starting solution.
* :class:`~repro.algorithms.offline.planted.PlantedSolver` — evaluates a
  planted facility set (used with clustered workloads).
* :func:`~repro.algorithms.offline.lp_bound.lp_relaxation_lower_bound` — LP
  relaxation lower bound on OPT for small instances.
"""

from repro.algorithms.base import (
    OfflineResult,
    OfflineSolver,
    OnlineAlgorithm,
    OnlineResult,
    run_online,
)
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.offline.local_search import LocalSearchSolver
from repro.algorithms.offline.lp_bound import lp_relaxation_lower_bound
from repro.algorithms.offline.planted import PlantedSolver
from repro.algorithms.online.always_large import AlwaysLargeGreedy
from repro.algorithms.online.no_prediction import NoPredictionGreedy
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import (
    FotakisOFLAlgorithm,
    MeyersonOFLAlgorithm,
    PerCommodityAlgorithm,
)
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.algorithms.online.threshold import ThresholdPDAlgorithm

__all__ = [
    "OnlineAlgorithm",
    "OnlineResult",
    "OfflineSolver",
    "OfflineResult",
    "run_online",
    "PDOMFLPAlgorithm",
    "ThresholdPDAlgorithm",
    "RandOMFLPAlgorithm",
    "FotakisOFLAlgorithm",
    "MeyersonOFLAlgorithm",
    "PerCommodityAlgorithm",
    "NoPredictionGreedy",
    "AlwaysLargeGreedy",
    "BruteForceSolver",
    "GreedyOfflineSolver",
    "LocalSearchSolver",
    "PlantedSolver",
    "lp_relaxation_lower_bound",
]
