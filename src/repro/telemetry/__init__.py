"""Streaming observability + competitive-ratio analytics.

Three layers (see DESIGN notes in the submodule docstrings):

* :mod:`repro.telemetry.probes` — the string-keyed :data:`METRICS_PROBES`
  registry of O(1)-memory streaming statistics (cost decomposition, opening
  rate, rolling competitive ratio);
* :mod:`repro.telemetry.sink` — :class:`TelemetrySink`, the opt-in
  ``telemetry=`` hook of :class:`~repro.api.session.OnlineSession` /
  :class:`~repro.scenarios.run.ScenarioSession`, strict-JSON durable so
  snapshots carry telemetry bit-identically;
* :mod:`repro.telemetry.report` — the ``repro report`` renderer turning a
  result store or RunRecord set into self-contained markdown/HTML dashboards
  with a committed-baseline regression gate.

Telemetry is passive by contract: enabling it changes no event, cost or RNG
draw of the session it observes (pinned by ``tests/test_telemetry.py``).
It is also a deterministic function of the served
:class:`~repro.api.session.AssignmentEvent` stream: probes answer *what the
run did* and never read a clock, so same-seed runs report equal summaries
(pinned by digest in ``tests/test_submit_envelope.py``).  Latency belongs to
the span tracer (:mod:`repro.trace`): a traced session's per-request
percentiles are ``tracer.phase_summary()["algorithm.process"]``.
"""

from repro.telemetry.probes import (
    METRICS_PROBES,
    CompetitiveRatioProbe,
    CostDecompositionProbe,
    MetricsProbe,
    OpeningRateProbe,
)
from repro.telemetry.report import render_report
from repro.telemetry.sink import DEFAULT_PROBES, TelemetrySink

__all__ = [
    "DEFAULT_PROBES",
    "METRICS_PROBES",
    "CompetitiveRatioProbe",
    "CostDecompositionProbe",
    "MetricsProbe",
    "OpeningRateProbe",
    "TelemetrySink",
    "render_report",
]
