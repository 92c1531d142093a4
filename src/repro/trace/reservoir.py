"""Uniform reservoir sampling with geometric skips (Li's "Algorithm L").

The fixed-size uniform sample behind every latency percentile the repo
reports: each per-phase aggregate of :class:`~repro.trace.tracer.Tracer`
folds its observations through a :class:`ReservoirSampler`, so ``repro trace
summarize``, the service ``metrics`` op's per-op block and a traced
session's per-request latency (``phase_summary()["algorithm.process"]``)
are all estimated the same way.

The sampler pre-computes the arrival index of the *next* replacement, so the
steady-state per-observation cost is one integer compare — O(k·log(n/k)) RNG
draws over the whole stream instead of one per observation.  All draws come
from a **private** generator seeded at construction; tracing a run therefore
draws nothing from any algorithm's RNG stream (the passivity contract of
:mod:`repro.trace`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.utils.rng import rng_state

__all__ = ["ReservoirSampler"]


class ReservoirSampler:
    """A fixed-capacity uniform sample over a stream of floats.

    Every observation ever folded in has equal probability of being in the
    reservoir, regardless of stream length.  ``capacity`` must be at least 1
    (the tracer checks its ``reservoir_capacity``).
    """

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        self._capacity = int(capacity)
        self._seed = int(seed)
        self._rng = np.random.default_rng(self._seed)
        self._values: List[float] = []
        self._count = 0
        # Algorithm L skip state: w is the running acceptance weight, next
        # the 0-based arrival index of the next reservoir replacement.
        self._w = 1.0
        self._next_replacement = self._capacity
        self._filled = False

    @property
    def seed(self) -> int:
        return self._seed

    # ------------------------------------------------------------------
    def _uniform_open(self) -> float:
        value = float(self._rng.random())
        # random() lives in [0, 1); dodge the measure-zero log(0) endpoint.
        return value if value > 0.0 else 0.5

    def _advance_skip(self, from_index: int) -> None:
        self._w *= math.exp(math.log(self._uniform_open()) / self._capacity)
        log_reject = math.log1p(-self._w)
        if log_reject == 0.0:  # w underflowed: no further replacements, ever
            self._next_replacement = 2**62
            return
        skip = int(math.log(self._uniform_open()) / log_reject)
        self._next_replacement = from_index + 1 + skip

    def add_many(self, values: Sequence[float]) -> None:
        """Fold a run of observations, in order, into the sample.

        Fills the reservoir with one slice, then jumps straight from one
        precomputed replacement index to the next, so the values in between
        cost nothing.  The draws, their order and the resulting state equal
        folding the values one at a time (``tests/test_observer_batches.py``).
        """
        start = self._count
        end = start + len(values)
        reservoir = self._values
        if not self._filled:
            taken = min(self._capacity - len(reservoir), len(values))
            reservoir.extend(values[:taken])
            if len(reservoir) < self._capacity:
                self._count = end
                return
            self._filled = True
            self._advance_skip(start + taken - 1)
        while self._next_replacement < end:
            index = self._next_replacement
            slot = int(self._rng.integers(0, self._capacity))
            reservoir[slot] = values[index - start]
            self._advance_skip(index)
        self._count = end

    def percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0)
    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., ...}`` over the current sample (``None`` when empty)."""
        if not self._values:
            return {f"p{q:g}": None for q in qs}
        values = np.asarray(self._values, dtype=np.float64)
        points = np.percentile(values, list(qs))
        return {f"p{q:g}": float(p) for q, p in zip(qs, points)}

    def state_dict(self) -> Dict[str, Any]:
        """The whole sampler state as strict JSON: the sample, the skip
        position and the private generator."""
        return {
            "count": self._count,
            "reservoir": list(self._values),
            "w": self._w,
            "next_replacement": self._next_replacement,
            "rng": rng_state(self._rng),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReservoirSampler(capacity={self._capacity}, count={self._count}, "
            f"size={len(self._values)})"
        )
