"""repro.trace — deterministic span tracing & profiling.

Span-based tracing across the session, engine and service layers with two
clocks per span (a deterministic event clock that is part of the trace
content, and a profiling-only wall clock), bounded O(buffer) collection
with deterministic stratified sampling of per-request detail, cross-process
shard merging, and Chrome trace-event export loadable in Perfetto.

Timing lives here and only here: per-phase latency percentiles come from the
tracer's reservoir samples (:mod:`repro.trace.reservoir`), including a
traced session's per-request latency, ``phase_summary()["algorithm.process"]``.
:mod:`repro.telemetry` folds only what a run did, never how long it took.

Entry points: pass ``tracer=True`` (or a configured :class:`Tracer`) to
``OnlineSession`` / ``ScenarioSession`` / ``run_plan`` / ``ServiceProtocol``,
then ``tracer.to_payload()`` → ``repro trace export`` / ``summarize``.

The package depends on nothing above :mod:`repro.utils` and
:mod:`repro.exceptions`, so the session, engine and service layers import it
at module level.
"""

from repro.trace.clock import wall_now
from repro.trace.export import (
    chrome_trace,
    render_summary,
    summarize_trace,
    validate_chrome_trace,
)
from repro.trace.span import Span
from repro.trace.tracer import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceError,
    Tracer,
    validate_payload,
)

__all__ = [
    "Span",
    "Tracer",
    "TraceError",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "wall_now",
    "chrome_trace",
    "validate_chrome_trace",
    "summarize_trace",
    "render_summary",
    "validate_payload",
]
