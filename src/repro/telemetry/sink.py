"""The telemetry sink: an ordered set of probes attached to one session.

:class:`TelemetrySink` is the object a session's ``telemetry=`` hook accepts.
It coerces a declarative probe list (names, spec dicts or live probe
instances) into built probes, binds them to the session's fixed environment,
fans each batch of served events out to them, and round-trips the whole
ensemble through a strict-JSON state dict so snapshots carry telemetry
bit-identically (the probe *specs* are embedded alongside the state, making
the sink self-describing: :meth:`TelemetrySink.from_state_dict` rebuilds it
without re-supplying the configuration).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.api.session import AssignmentEvent
from repro.costs.base import FacilityCostFunction
from repro.exceptions import TelemetryError
from repro.metric.base import MetricSpace
from repro.telemetry.probes import METRICS_PROBES, MetricsProbe

__all__ = ["TelemetrySink", "DEFAULT_PROBES"]

#: Probe kinds a bare ``telemetry=True`` enables, in report order.
DEFAULT_PROBES = ("cost-decomposition", "opening-rate", "competitive-ratio")

#: Probe kinds that no longer exist but that older sink states may list.
#: :meth:`TelemetrySink.from_state_dict` drops their entries: the
#: ``latency`` probe kept wall-clock times, which the span tracer now owns.
_RETIRED_PROBES = frozenset({"latency"})

#: Format marker embedded in every sink state dict.
SINK_STATE_FORMAT = "repro.telemetry.sink"
SINK_STATE_VERSION = 1

ProbeLike = Union[str, Mapping[str, Any], MetricsProbe]


def _build_probe(entry: ProbeLike) -> MetricsProbe:
    if isinstance(entry, MetricsProbe):
        return entry
    if isinstance(entry, str):
        return METRICS_PROBES.build(entry)
    if isinstance(entry, Mapping):
        params = dict(entry)
        kind = params.pop("kind", None)
        if not isinstance(kind, str):
            raise TelemetryError(
                f"probe spec dicts need a string 'kind' entry, got {entry!r}"
            )
        return METRICS_PROBES.build(kind, **params)
    raise TelemetryError(
        f"cannot build a probe from {type(entry).__name__}; pass a registered "
        "kind name, a spec dict or a MetricsProbe instance"
    )


class TelemetrySink:
    """An ordered, named collection of probes fed by one session.

    Parameters
    ----------
    probes:
        Probe kinds (names), spec dicts (``{"kind": ..., **params}``) or live
        :class:`~repro.telemetry.probes.MetricsProbe` instances.  ``None``
        enables the full stock catalog (:data:`DEFAULT_PROBES`).  Kinds must
        be unique per sink — summaries are keyed by kind.
    """

    def __init__(self, probes: Optional[Iterable[ProbeLike]] = None) -> None:
        entries = list(probes) if probes is not None else list(DEFAULT_PROBES)
        self._probes: List[MetricsProbe] = [_build_probe(entry) for entry in entries]
        seen: Dict[str, bool] = {}
        for probe in self._probes:
            if probe.kind in seen:
                raise TelemetryError(
                    f"duplicate probe kind {probe.kind!r} on one sink; "
                    "summaries are keyed by kind, so kinds must be unique"
                )
            seen[probe.kind] = True
        self._bound = False

    # ------------------------------------------------------------------
    @property
    def probes(self) -> List[MetricsProbe]:
        return list(self._probes)

    @property
    def kinds(self) -> List[str]:
        return [probe.kind for probe in self._probes]

    @property
    def bound(self) -> bool:
        return self._bound

    def __len__(self) -> int:
        return len(self._probes)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def bind(self, metric: MetricSpace, cost: FacilityCostFunction) -> None:
        """Attach every probe to the session's fixed environment (idempotent
        misuse guard: a sink serves exactly one session)."""
        if self._bound:
            raise TelemetryError(
                "this TelemetrySink is already attached to a session; "
                "build a fresh sink per session"
            )
        for probe in self._probes:
            probe.bind(metric, cost)
        self._bound = True

    def record_batch(self, events: Sequence[AssignmentEvent]) -> None:
        """Fan a run of served requests out to every probe.

        Each probe receives the whole run once, through
        :meth:`~repro.telemetry.probes.MetricsProbe.observe_batch`, and folds
        it in one pass with its accumulators in local variables.  Each probe
        sees every event exactly once, in arrival order, and ends in the
        state that observing the events one by one would leave.  Probes are
        independent by contract, so the probe-major order is not observable.
        """
        for probe in self._probes:
            probe.observe_batch(events)

    def summary(self) -> Dict[str, Any]:
        """``{probe kind: probe summary}`` in probe order (strict JSON)."""
        return {probe.kind: probe.summary() for probe in self._probes}

    # ------------------------------------------------------------------
    # Strict-JSON durability
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "format": SINK_STATE_FORMAT,
            "version": SINK_STATE_VERSION,
            "probes": [
                {"spec": probe.spec(), "state": probe.state_dict()}
                for probe in self._probes
            ],
        }

    @classmethod
    def from_state_dict(cls, state: Mapping[str, Any]) -> "TelemetrySink":
        """Rebuild a sink (probes + their exact state) from :meth:`state_dict`.

        The returned sink is *unbound*; the restoring session binds it to the
        rebuilt environment before streaming resumes.  Entries of a retired
        probe kind (``latency``) are dropped, so snapshots written while it
        existed still load.
        """
        if state.get("format") != SINK_STATE_FORMAT:
            raise TelemetryError(
                f"not a telemetry sink state dict: format={state.get('format')!r}"
            )
        if state.get("version") != SINK_STATE_VERSION:
            raise TelemetryError(
                f"unsupported telemetry sink state version {state.get('version')!r}"
            )
        entries = [
            entry
            for entry in state["probes"]
            if entry["spec"].get("kind") not in _RETIRED_PROBES
        ]
        sink = cls([dict(entry["spec"]) for entry in entries])
        for probe, entry in zip(sink._probes, entries):
            probe.load_state_dict(entry["state"])
        return sink

    @classmethod
    def coerce(
        cls, telemetry: Union[bool, Iterable[ProbeLike], "TelemetrySink", None]
    ) -> Optional["TelemetrySink"]:
        """Normalize a session's ``telemetry=`` argument.

        ``None``/``False`` → no telemetry; ``True`` → a sink with the stock
        probe catalog; an iterable → a sink over those probes; a live sink is
        passed through.
        """
        if telemetry is None or telemetry is False:
            return None
        if telemetry is True:
            return cls()
        if isinstance(telemetry, TelemetrySink):
            return telemetry
        return cls(telemetry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TelemetrySink(probes={self.kinds!r}, bound={self._bound})"
