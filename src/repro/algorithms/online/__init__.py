"""Online algorithms for the OMFLP (the paper's contribution and baselines)."""

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
    "PDOMFLPAlgorithm",
    "ThresholdPDAlgorithm",
    "RandOMFLPAlgorithm",
    "FotakisOFLAlgorithm",
    "MeyersonOFLAlgorithm",
    "PerCommodityAlgorithm",
    "NoPredictionGreedy",
    "AlwaysLargeGreedy",
]
