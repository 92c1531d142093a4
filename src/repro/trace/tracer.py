"""The span tracer: bounded collection, deterministic sampling, aggregation.

A :class:`Tracer` is the collector one traced run records into.  It is built
for million-request streams on a fixed memory budget:

* **ring buffer** — finished spans land in a bounded ``deque``; once full,
  the oldest spans are dropped (counted in ``dropped_spans``), so retained
  detail is O(buffer) no matter how long the stream runs;
* **per-phase aggregates** — every recorded observation folds into a
  per-phase running aggregate (count, total/min/max wall seconds, plus a
  :class:`~repro.trace.reservoir.ReservoirSampler` for latency
  percentiles), so ``repro trace summarize``, the service ``metrics`` op
  and a traced session's per-request latency
  (``phase_summary()["algorithm.process"]``) see far more of the run than
  the buffered tail.  Instrumentation layers
  choose what to record per request: phases whose duration is measured
  anyway (``algorithm.process``, engine tasks, service wire ops) fold on
  *every* occurrence, while sub-phases that would need their own clock
  reads ride the detail sample below — the split that keeps traced
  streaming overhead within the ``benchmarks/bench_trace.py`` budget;
* **deterministic stratified sampling** — per-request detail spans are
  recorded for exactly one request per ``detail_stride``-sized stratum, the
  offset drawn from a private generator seeded by ``(sample_seed, stratum)``.
  The sample is a pure function of the tracer configuration, so same seed
  and spec retain byte-identical span sets across runs.

Determinism contract (pinned by ``tests/test_trace.py``): everything except
wall-clock values — span ids, parent links, event-clock ticks, ordinals,
attributes, phase counts — is identical across same-seed runs, and a traced
run's events/costs/RNG states are exact-``==`` to an untraced run's (the
tracer never touches any algorithm RNG; its only private draws are the
sampling offsets and reservoir skips above).
"""

from __future__ import annotations

import zlib
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ReproError
from repro.trace.clock import wall_now
from repro.trace.reservoir import ReservoirSampler
from repro.trace.span import Span

__all__ = ["Tracer", "TraceError", "TRACE_FORMAT", "TRACE_VERSION"]

#: Format marker embedded in every trace payload.
TRACE_FORMAT = "repro.trace"
TRACE_VERSION = 1

_DEFAULT_BUFFER = 4096
_DEFAULT_STRIDE = 1024
_DEFAULT_RESERVOIR = 256
#: Buffered record_phase observations folded per batch (memory bound of each
#: phase's fold buffer; batching keeps the per-request cost to an append).
_FOLD_FLUSH_EVERY = 512


class TraceError(ReproError):
    """A trace API misuse or a malformed trace payload."""


class _PhaseStats:
    """Running aggregate of one phase name (all observations, not a sample)."""

    __slots__ = ("count", "total_seconds", "min_seconds", "max_seconds", "sampler")

    def __init__(self, sampler: ReservoirSampler) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0
        self.sampler = sampler

    def fold(self, seconds: float) -> None:
        self.fold_many((seconds,))

    def fold_many(self, values: Sequence[float]) -> None:
        """Fold a run of observations in one pass: the count, a left-to-right
        total, min and max, then one batch reservoir add."""
        total = self.total_seconds
        shortest = self.min_seconds
        longest = self.max_seconds
        for seconds in values:
            total += seconds
            if seconds < shortest:
                shortest = seconds
            if seconds > longest:
                longest = seconds
        self.count += len(values)
        self.total_seconds = total
        self.min_seconds = shortest
        self.max_seconds = longest
        self.sampler.add_many(values)


class Tracer:
    """One trace collector: spans in, bounded buffer + aggregates out.

    Parameters
    ----------
    buffer_size:
        Capacity of the finished-span ring buffer (oldest spans drop first).
    detail_stride:
        Stratum size of the deterministic per-request detail sample: one
        request per ``detail_stride`` consecutive indices gets full sub-phase
        spans (and sub-phase timing); every request still folds the phases
        its caller measures unconditionally (e.g. ``algorithm.process``).
        ``1`` records detail for every request (tests, short runs).
    sample_seed:
        Seed of the private sampling/reservoir RNG streams.  Never related
        to any algorithm seed — tracing draws nothing from session RNGs.
    reservoir_capacity:
        Per-phase latency reservoir size (Algorithm L).
    """

    def __init__(
        self,
        *,
        buffer_size: int = _DEFAULT_BUFFER,
        detail_stride: int = _DEFAULT_STRIDE,
        sample_seed: int = 0,
        reservoir_capacity: int = _DEFAULT_RESERVOIR,
    ) -> None:
        if buffer_size < 1:
            raise TraceError(f"buffer_size must be >= 1, got {buffer_size}")
        if detail_stride < 1:
            raise TraceError(f"detail_stride must be >= 1, got {detail_stride}")
        if reservoir_capacity < 1:
            raise TraceError(f"reservoir_capacity must be >= 1, got {reservoir_capacity}")
        self._buffer_size = int(buffer_size)
        self._detail_stride = int(detail_stride)
        self._sample_seed = int(sample_seed)
        self._reservoir_capacity = int(reservoir_capacity)
        self._spans: Deque[Span] = deque(maxlen=self._buffer_size)
        self._stack: List[Span] = []
        self._phases: Dict[str, _PhaseStats] = {}
        self._next_id = 0
        self._clock = 0
        self._dropped = 0
        # The last stratum queried, as [start, end), and its detail index
        # (empty until the first query).
        self._stratum_start = 0
        self._stratum_end = 0
        self._detail_index = -1
        # Pending record_phase observations per phase, folded in batches
        # (see record_phase): each bounded by _FOLD_FLUSH_EVERY, drained
        # before any aggregate read.
        self._fold_buffer: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Coercion (the ``tracer=`` session/engine/service hook)
    # ------------------------------------------------------------------
    @classmethod
    def coerce(
        cls, tracer: Union[bool, "Tracer", None]
    ) -> Optional["Tracer"]:
        """Normalize a ``tracer=`` argument: ``None``/``False`` → disabled,
        ``True`` → a fresh default tracer, a live tracer → itself."""
        if tracer is None or tracer is False:
            return None
        if tracer is True:
            return cls()
        if isinstance(tracer, Tracer):
            return tracer
        raise TraceError(
            f"cannot coerce {type(tracer).__name__} into a Tracer; pass "
            "True, a Tracer instance, or None"
        )

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def buffer_size(self) -> int:
        return self._buffer_size

    @property
    def detail_stride(self) -> int:
        return self._detail_stride

    @property
    def sample_seed(self) -> int:
        return self._sample_seed

    @property
    def event_clock(self) -> int:
        """Current event-clock tick (monotone, deterministic)."""
        return self._clock

    @property
    def dropped_spans(self) -> int:
        """Finished spans evicted by the ring buffer so far."""
        return self._dropped

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def spans(self) -> List[Span]:
        """The retained (buffered) finished spans, oldest first."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------
    # Deterministic stratified sampling
    # ------------------------------------------------------------------
    def should_detail(self, index: int) -> bool:
        """Whether request ``index`` is the detail sample of its stratum.

        Exactly one index per ``detail_stride``-sized stratum returns True;
        the offset within each stratum comes from a generator seeded by
        ``(sample_seed, stratum)``, so the sample is stratified, unbiased
        within strata, and a pure function of the tracer configuration.
        """
        if self._stratum_start <= index < self._stratum_end:
            return index == self._detail_index
        stride = self._detail_stride
        if stride <= 1:
            return True
        stratum = index // stride
        offset = int(
            np.random.default_rng((self._sample_seed, stratum)).integers(0, stride)
        )
        self._stratum_start = stratum * stride
        self._stratum_end = self._stratum_start + stride
        self._detail_index = self._stratum_start + offset
        return index == self._detail_index

    def next_detail(self, index: int) -> int:
        """The first index at or after ``index`` that :meth:`should_detail`
        samples.

        A caller that serves requests in index order decides each request
        with one compare against this index, and asks again only once it has
        passed it: the session asks once per stratum, not once per request.
        """
        if self._detail_stride <= 1:
            return index
        self.should_detail(index)  # places the stratum holding ``index``
        if self._detail_index < index:
            self.should_detail(self._stratum_end)  # the next stratum
        return self._detail_index

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _phase(self, name: str) -> _PhaseStats:
        stats = self._phases.get(name)
        if stats is None:
            # Per-phase reservoir seed derived from the phase *name* (stable
            # across runs and processes — never from id()/hash()).
            seed = (zlib.crc32(name.encode("utf-8")) ^ self._sample_seed) & 0x7FFFFFFF
            stats = self._phases[name] = _PhaseStats(
                ReservoirSampler(capacity=self._reservoir_capacity, seed=seed)
            )
        return stats

    def record_phase(self, name: str, seconds: float) -> None:
        """Fold one pre-measured observation into the phase aggregates only
        (no span object, no event-clock tick).

        Observations are buffered per phase and folded in batches:
        interleaved with real per-request work, every small aggregate call
        runs on cold caches and costs several times its tight-loop price, so
        recording is a list append here, and :meth:`_flush_folds` folds each
        buffer in one pass.  Every aggregate reader (``phase_summary``,
        ``to_payload``) drains the buffers first, and each buffer is bounded
        by ``_FOLD_FLUSH_EVERY`` observations.
        """
        buffer = self.phase_buffer(name)
        buffer.append(seconds)
        if len(buffer) >= _FOLD_FLUSH_EVERY:
            self._flush_folds()

    def phase_buffer(self, name: str) -> List[float]:
        """The live list of ``name`` observations waiting to be folded.

        :meth:`record_phase` appends to it.  A per-request hot path may
        append to it directly, without the method call, provided it calls
        :meth:`_flush_folds` once the list holds ``_FOLD_FLUSH_EVERY`` values
        (the session does so for ``algorithm.process``).  The list object
        stays the same for the tracer's lifetime.
        """
        buffer = self._fold_buffer.get(name)
        if buffer is None:
            buffer = self._fold_buffer[name] = []
        return buffer

    def _flush_folds(self) -> None:
        """Drain the buffered observations into the per-phase aggregates,
        one :meth:`_PhaseStats.fold_many` pass per phase."""
        for name, values in self._fold_buffer.items():
            if values:
                self._phase(name).fold_many(values)
                values.clear()

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        category: str,
        ordinal: int = 0,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span (parented to the innermost open span)."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            ordinal=ordinal,
            event_start=self._clock,
            attributes=dict(attributes) if attributes else {},
        )
        self._next_id += 1
        self._clock += 1
        self._stack.append(span)
        span.wall_start = wall_now()
        return span

    def end(self, span: Span, *, attributes: Optional[Dict[str, Any]] = None) -> Span:
        """Close the innermost open span (must be ``span``) and retain it."""
        elapsed = wall_now() - span.wall_start
        if not self._stack or self._stack[-1] is not span:
            raise TraceError(
                f"span {span.name!r} is not the innermost open span; "
                "end() calls must nest like the begin() calls did"
            )
        self._stack.pop()
        span.event_end = self._clock
        self._clock += 1
        span.wall_duration = elapsed
        if attributes:
            span.attributes.update(attributes)
        self._phase(span.name).fold(elapsed)
        self._retain(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        category: str,
        ordinal: int = 0,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Span]:
        """``with tracer.span(...):`` convenience around begin/end."""
        handle = self.begin(name, category=category, ordinal=ordinal, attributes=attributes)
        try:
            yield handle
        finally:
            self.end(handle)

    def add(
        self,
        name: str,
        *,
        category: str,
        ordinal: int = 0,
        seconds: float,
        wall_start: float = 0.0,
        attributes: Optional[Dict[str, Any]] = None,
        detail: bool = True,
    ) -> Optional[Span]:
        """Record a completed phase measured by the caller.

        Always folds into the aggregates; with ``detail=True`` additionally
        retains a span (parented to the innermost open span) carrying the
        measured duration.  This is how the session records per-request
        phases: the duration is measured once (it feeds ``RunRecord``
        runtime telemetry anyway) and reused here.
        """
        self._phase(name).fold(seconds)
        if not detail:
            return None
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            ordinal=ordinal,
            event_start=self._clock,
            event_end=self._clock + 1,
            attributes=dict(attributes) if attributes else {},
            wall_start=wall_start,
            wall_duration=seconds,
        )
        self._next_id += 1
        self._clock += 2
        self._retain(span)
        return span

    def _retain(self, span: Span) -> None:
        if len(self._spans) == self._buffer_size:
            self._dropped += 1
        self._spans.append(span)

    # ------------------------------------------------------------------
    # Cross-process shard merge
    # ------------------------------------------------------------------
    def merge_shard(
        self,
        shard_spans: Sequence[Mapping[str, Any]],
        *,
        shard: str,
        parent_id: Optional[int] = None,
    ) -> List[Span]:
        """Merge a worker's span shard into this trace.

        ``shard_spans`` is the ``spans`` list of the worker tracer's
        :meth:`to_payload` (plain dicts, so it crosses the process pool as
        data).  Ids and event-clock ticks are re-based onto this tracer —
        deterministically, because shards are merged in task order — worker
        root spans are re-parented under ``parent_id``, every span is tagged
        with the ``shard`` label, and wall durations fold into this tracer's
        phase aggregates so cross-process work shows up in summaries.
        """
        merged: List[Span] = []
        id_map: Dict[int, int] = {}
        event_base = self._clock
        max_event = -1
        ordered = sorted(shard_spans, key=lambda data: int(data["span_id"]))
        for data in ordered:
            span = Span.from_dict(data)
            local_id = span.span_id
            span.span_id = self._next_id
            self._next_id += 1
            id_map[local_id] = span.span_id
            if span.parent_id is not None and span.parent_id in id_map:
                span.parent_id = id_map[span.parent_id]
            else:
                span.parent_id = parent_id
            if span.event_end > max_event:
                max_event = span.event_end
            span.event_start += event_base
            span.event_end += event_base
            span.shard = shard
            self._phase(span.name).fold(span.wall_duration)
            self._retain(span)
            merged.append(span)
        if max_event >= 0:
            self._clock = event_base + max_event + 1
        return merged

    # ------------------------------------------------------------------
    # Summaries + payload
    # ------------------------------------------------------------------
    def phase_summary(
        self,
        *,
        prefix: Optional[str] = None,
        percentiles: Sequence[float] = (50.0, 95.0, 99.0),
    ) -> Dict[str, Dict[str, Any]]:
        """``{phase: {count, total/mean/min/max seconds, pXX...}}``, sorted.

        ``prefix`` filters phases by name prefix (e.g. ``"service."`` for
        the wire-op latency block of the service ``metrics`` op).
        """
        self._flush_folds()
        summary: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._phases):
            if prefix is not None and not name.startswith(prefix):
                continue
            stats = self._phases[name]
            summary[name] = {
                "count": stats.count,
                "total_seconds": stats.total_seconds,
                "mean_seconds": (
                    stats.total_seconds / stats.count if stats.count else None
                ),
                "min_seconds": stats.min_seconds if stats.count else None,
                "max_seconds": stats.max_seconds if stats.count else None,
                **stats.sampler.percentiles(percentiles),
            }
        return summary

    def to_payload(self, *, include_wall: bool = True) -> Dict[str, Any]:
        """The full trace as a strict-JSON payload.

        With ``include_wall=False`` every wall-clock field is omitted — from
        spans *and* phase aggregates — leaving only the deterministic
        content; ``tests/test_trace.py`` pins that this form is
        byte-identical across same-seed runs.
        """
        self._flush_folds()
        phases: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._phases):
            stats = self._phases[name]
            entry: Dict[str, Any] = {"count": stats.count}
            if include_wall:
                entry.update(
                    total_seconds=stats.total_seconds,
                    min_seconds=stats.min_seconds if stats.count else None,
                    max_seconds=stats.max_seconds if stats.count else None,
                    **stats.sampler.percentiles((50.0, 95.0, 99.0)),
                )
            phases[name] = entry
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "meta": {
                "buffer_size": self._buffer_size,
                "detail_stride": self._detail_stride,
                "sample_seed": self._sample_seed,
                "event_clock": self._clock,
                "spans_retained": len(self._spans),
                "dropped_spans": self._dropped,
                "open_spans": len(self._stack),
            },
            "spans": [span.to_dict(include_wall=include_wall) for span in self._spans],
            "phases": phases,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self._spans)}, phases={len(self._phases)}, "
            f"clock={self._clock}, dropped={self._dropped})"
        )


def validate_payload(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Check a loaded trace payload's envelope; returns it as a plain dict."""
    if not isinstance(data, Mapping) or data.get("format") != TRACE_FORMAT:
        raise TraceError(
            f"not a repro trace payload: format={data.get('format') if isinstance(data, Mapping) else type(data).__name__!r}"
        )
    if data.get("version") != TRACE_VERSION:
        raise TraceError(f"unsupported trace payload version {data.get('version')!r}")
    if not isinstance(data.get("spans"), list) or not isinstance(data.get("phases"), Mapping):
        raise TraceError("trace payload needs 'spans' (list) and 'phases' (object)")
    return dict(data)
