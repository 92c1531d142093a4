"""Uniform reservoir sampling with geometric skips (Li's "Algorithm L").

One shared implementation of the fixed-size uniform sample used everywhere a
percentile over an unbounded stream is reported: the
:class:`~repro.telemetry.probes.LatencyReservoirProbe` (per-request latency
percentiles on sessions) and the per-phase latency aggregates of
:class:`~repro.trace.tracer.Tracer` (``repro trace summarize`` and the
service ``metrics`` op) both fold their observations through a
:class:`ReservoirSampler`.

The sampler pre-computes the arrival index of the *next* replacement, so the
steady-state per-observation cost is one integer compare — O(k·log(n/k)) RNG
draws over the whole stream instead of one per observation.  All draws come
from a **private** generator seeded at construction; attaching a sampler to a
run therefore draws nothing from any algorithm's RNG stream (the passivity
contract of :mod:`repro.telemetry` and :mod:`repro.trace`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import TelemetryError
from repro.utils.rng import rng_from_state, rng_state

__all__ = ["ReservoirSampler"]


class ReservoirSampler:
    """A fixed-capacity uniform sample over a stream of floats.

    Every observation ever :meth:`add`-ed has equal probability of being in
    the reservoir, regardless of stream length.  State round-trips losslessly
    through strict JSON (:meth:`state_dict` / :meth:`load_state_dict`), so
    the sample — including the exact skip position — survives snapshots.
    """

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        if capacity < 1:
            raise TelemetryError(f"reservoir capacity must be >= 1, got {capacity}")
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

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def count(self) -> int:
        """Observations folded in so far (not the reservoir size)."""
        return self._count

    def values(self) -> List[float]:
        """The current sample, in reservoir-slot order."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

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

    def add(self, value: float) -> None:
        """Fold one observation into the sample."""
        self.add_many((value,))

    def add_many(self, values: Sequence[float]) -> None:
        """Fold a run of observations, in order, into the sample.

        Fills the reservoir with one slice, then jumps straight from one
        precomputed replacement index to the next, so the values in between
        cost nothing.  The draws, their order and the resulting state equal
        :meth:`add` per value.
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

    # ------------------------------------------------------------------
    # Strict-JSON durability
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "reservoir": list(self._values),
            "w": self._w,
            "next_replacement": self._next_replacement,
            "rng": rng_state(self._rng),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        self._count = int(state["count"])
        self._values = [float(v) for v in state["reservoir"]]
        self._w = float(state["w"])
        self._next_replacement = int(state["next_replacement"])
        self._filled = len(self._values) >= self._capacity
        self._rng = rng_from_state(state["rng"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReservoirSampler(capacity={self._capacity}, count={self._count}, "
            f"size={len(self._values)})"
        )
