"""Streaming metrics probes — O(1)-memory running statistics over sessions.

A probe consumes the stream of :class:`~repro.api.session.AssignmentEvent`
objects a session emits, a batch at a time, and maintains a bounded-memory
running summary.  Probes are registered by name in the string-keyed
:data:`METRICS_PROBES` registry, mirroring the metric/cost/algorithm/scenario
registries, so a telemetry configuration is plain data:
``telemetry=["cost-decomposition", "opening-rate"]``.

Contracts every probe honours (pinned by ``tests/test_telemetry.py``):

* **passive** — a probe only *reads* events; it never touches the session's
  RNG, state or decisions, so enabling telemetry is bit-identical to running
  without it;
* **deterministic** — a probe's state is a function of the events alone: no
  clock reads, no random draws, so same-seed runs report equal summaries
  (wall-clock latency is the span tracer's, :mod:`repro.trace`);
* **O(1) memory** — summaries are running aggregates or fixed-size sketches,
  never per-request logs, so probes survive multi-million-request streams;
* **strict-JSON durability** — :meth:`MetricsProbe.state_dict` /
  :meth:`MetricsProbe.load_state_dict` round-trip the full probe state
  losslessly through JSON, so session snapshots carry telemetry and a
  resumed session continues its metrics exactly where they left off.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.analysis.competitive import IncrementalOfflineBound
from repro.api.registry import Registry
from repro.api.session import AssignmentEvent
from repro.costs.base import FacilityCostFunction
from repro.exceptions import TelemetryError
from repro.metric.base import MetricSpace

__all__ = [
    "METRICS_PROBES",
    "MetricsProbe",
    "CostDecompositionProbe",
    "OpeningRateProbe",
    "CompetitiveRatioProbe",
]

#: Format marker embedded in every probe state dict.
PROBE_STATE_FORMAT = "repro.telemetry.probe"
PROBE_STATE_VERSION = 1

#: The probe registry (strict params: a typo'd probe parameter in a
#: declarative telemetry spec fails naming the offending key).
METRICS_PROBES = Registry("metrics probe", strict_params=True)


class MetricsProbe(abc.ABC):
    """One streaming statistic over a session's event stream.

    Subclasses set the class attribute ``kind`` (their registry name),
    implement :meth:`observe`, :meth:`summary` and the ``_state`` /
    ``_load_state`` payload hooks, and declare their constructor parameters
    via :meth:`params` so a probe can be rebuilt declaratively from its
    :meth:`spec`.
    """

    kind: str = ""

    # ------------------------------------------------------------------
    # Declarative identity
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        """Constructor parameters (strict JSON) to rebuild this probe."""
        return {}

    def spec(self) -> Dict[str, Any]:
        """``{"kind": ..., **params}`` — the declarative form of this probe."""
        return {"kind": self.kind, **self.params()}

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def bind(self, metric: MetricSpace, cost: FacilityCostFunction) -> None:
        """Attach the probe to a session's fixed environment (optional hook).

        Called once by the sink when telemetry attaches to a session; probes
        that need the environment (the competitive-ratio probe) build their
        derived structures here.  Default: no-op.
        """

    @abc.abstractmethod
    def observe(self, event: AssignmentEvent) -> None:
        """Fold one served request into the running statistic."""

    def observe_batch(self, events: Sequence[AssignmentEvent]) -> None:
        """Fold a run of served requests, in arrival order.

        The sink hands each probe a whole flush through this hook.  The
        default calls :meth:`observe` per event; the stock probes fold the
        run in one pass over local variables (their :meth:`observe` is a
        batch of one), with the same float operations in the same order, so
        the state after a batch equals the state after observing its events
        one by one.
        """
        observe = self.observe
        for event in events:
            observe(event)

    @abc.abstractmethod
    def summary(self) -> Dict[str, Any]:
        """Current value of the statistic as a strict-JSON dict."""

    # ------------------------------------------------------------------
    # Strict-JSON durability
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _state(self) -> Dict[str, Any]:
        """Probe-specific mutable state (strict JSON)."""

    @abc.abstractmethod
    def _load_state(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`_state`."""

    def state_dict(self) -> Dict[str, Any]:
        return {
            "format": PROBE_STATE_FORMAT,
            "version": PROBE_STATE_VERSION,
            "kind": self.kind,
            "state": self._state(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if state.get("format") != PROBE_STATE_FORMAT:
            raise TelemetryError(
                f"not a probe state dict: format={state.get('format')!r}"
            )
        if state.get("version") != PROBE_STATE_VERSION:
            raise TelemetryError(
                f"unsupported probe state version {state.get('version')!r}"
            )
        if state.get("kind") != self.kind:
            raise TelemetryError(
                f"probe state is for kind {state.get('kind')!r}, "
                f"cannot load into {self.kind!r}"
            )
        self._load_state(state["state"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(kind={self.kind!r})"


# ----------------------------------------------------------------------
# Stock probes
# ----------------------------------------------------------------------
@METRICS_PROBES.register("cost-decomposition")
class CostDecompositionProbe(MetricsProbe):
    """Running opening-vs-connection cost split, per commodity.

    Connection cost is attributed to the demanded commodities in equal
    shares (an event reports one connection cost for the whole commodity
    set; the uniform split keeps the per-commodity columns summing exactly
    to the total).  Opening cost is kept as a session-wide aggregate — a
    facility opening serves a configuration, not one commodity.
    """

    kind = "cost-decomposition"

    def __init__(self) -> None:
        self._num_requests = 0
        self._opening_cost = 0.0
        self._connection_cost = 0.0
        # commodity -> [requests, connection cost]
        self._per_commodity: Dict[int, List[Any]] = {}

    def observe(self, event: AssignmentEvent) -> None:
        self.observe_batch((event,))

    def observe_batch(self, events: Sequence[AssignmentEvent]) -> None:
        opening = self._opening_cost
        connection = self._connection_cost
        per_commodity = self._per_commodity
        for event in events:
            opening += event.opening_cost_delta
            cost = event.connection_cost
            connection += cost
            commodities = event.commodities
            share = cost / len(commodities)
            # Per-commodity accumulators are independent, so iteration order
            # is irrelevant to the result (summaries and state sort on the
            # way out).
            for commodity in commodities:
                entry = per_commodity.get(commodity)
                if entry is None:
                    entry = per_commodity[commodity] = [0, 0.0]
                entry[0] += 1
                entry[1] += share
        self._num_requests += len(events)
        self._opening_cost = opening
        self._connection_cost = connection

    def _commodity_rows(self) -> Dict[str, Dict[str, Any]]:
        return {
            str(e): {"requests": requests, "connection_cost": cost}
            for e, (requests, cost) in sorted(self._per_commodity.items())
        }

    def summary(self) -> Dict[str, Any]:
        total = self._opening_cost + self._connection_cost
        return {
            "num_requests": self._num_requests,
            "opening_cost": self._opening_cost,
            "connection_cost": self._connection_cost,
            "total_cost": total,
            "opening_fraction": (self._opening_cost / total) if total > 0 else None,
            "per_commodity": self._commodity_rows(),
        }

    def _state(self) -> Dict[str, Any]:
        return {
            "num_requests": self._num_requests,
            "opening_cost": self._opening_cost,
            "connection_cost": self._connection_cost,
            "per_commodity": self._commodity_rows(),
        }

    def _load_state(self, state: Mapping[str, Any]) -> None:
        self._num_requests = int(state["num_requests"])
        self._opening_cost = float(state["opening_cost"])
        self._connection_cost = float(state["connection_cost"])
        self._per_commodity = {
            int(e): [int(entry["requests"]), float(entry["connection_cost"])]
            for e, entry in state["per_commodity"].items()
        }


@METRICS_PROBES.register("opening-rate")
class OpeningRateProbe(MetricsProbe):
    """How often (and how expensively) the algorithm opens facilities."""

    kind = "opening-rate"

    def __init__(self) -> None:
        self._num_requests = 0
        self._opening_events = 0
        self._opening_cost = 0.0
        self._max_facility_id = -1

    def observe(self, event: AssignmentEvent) -> None:
        self.observe_batch((event,))

    def observe_batch(self, events: Sequence[AssignmentEvent]) -> None:
        opening_events = self._opening_events
        opening = self._opening_cost
        max_id = self._max_facility_id
        for event in events:
            delta = event.opening_cost_delta
            if delta > 0.0:
                opening_events += 1
            opening += delta
            for facility_id in event.facility_ids:
                if facility_id > max_id:
                    max_id = facility_id
        self._num_requests += len(events)
        self._opening_events = opening_events
        self._opening_cost = opening
        self._max_facility_id = max_id

    def summary(self) -> Dict[str, Any]:
        return {
            "num_requests": self._num_requests,
            "opening_events": self._opening_events,
            "opening_rate": (
                self._opening_events / self._num_requests
                if self._num_requests
                else None
            ),
            "opening_cost": self._opening_cost,
            "facilities_seen": self._max_facility_id + 1,
        }

    def _state(self) -> Dict[str, Any]:
        return {
            "num_requests": self._num_requests,
            "opening_events": self._opening_events,
            "opening_cost": self._opening_cost,
            "max_facility_id": self._max_facility_id,
        }

    def _load_state(self, state: Mapping[str, Any]) -> None:
        self._num_requests = int(state["num_requests"])
        self._opening_events = int(state["opening_events"])
        self._opening_cost = float(state["opening_cost"])
        self._max_facility_id = int(state["max_facility_id"])


@METRICS_PROBES.register("competitive-ratio")
class CompetitiveRatioProbe(MetricsProbe):
    """Rolling competitive-ratio estimate against a streaming offline bound.

    Pairs the session's running online cost with the LP-free
    :class:`~repro.analysis.competitive.IncrementalOfflineBound` lower bound
    on offline OPT of the prefix — updated per arrival, never re-solving.
    A flush hands the bound the whole batch of events
    (:meth:`~repro.analysis.competitive.IncrementalOfflineBound.update_many`),
    where an arrival costs one coverage-mask bit per commodity and only an
    accepted anchor reads a distance column; the online cost is the last
    event's running total.  The reported ``ratio_upper_bound`` (online cost
    / lower bound) therefore *over*-estimates the true competitive ratio; at
    finalize it exactly matches the post-hoc batch computation
    :func:`~repro.analysis.competitive.streaming_lower_bound` on the served
    prefix (pinned with ``==`` in ``tests/test_telemetry.py``).
    """

    kind = "competitive-ratio"

    def __init__(self, anchor_cap: int = 256) -> None:
        self._anchor_cap = int(anchor_cap)
        self._bound: Optional[IncrementalOfflineBound] = None
        self._pending_state: Optional[Dict[str, Any]] = None
        self._online_cost = 0.0
        self._num_requests = 0

    def params(self) -> Dict[str, Any]:
        return {"anchor_cap": self._anchor_cap}

    def bind(self, metric: MetricSpace, cost: FacilityCostFunction) -> None:
        self._bound = IncrementalOfflineBound(
            metric, cost, anchor_cap=self._anchor_cap
        )
        if self._pending_state is not None:
            self._bound.load_state_dict(self._pending_state)
            self._pending_state = None

    def observe(self, event: AssignmentEvent) -> None:
        self.observe_batch((event,))

    def observe_batch(self, events: Sequence[AssignmentEvent]) -> None:
        if self._bound is None:
            raise TelemetryError(
                "competitive-ratio probe observed an event before bind(); "
                "attach it through a TelemetrySink"
            )
        if not events:
            return
        self._num_requests += len(events)
        # The running online cost is the last event's total so far
        # (event.total_cost_so_far, inlined).
        last = events[-1]
        self._online_cost = last.opening_cost_so_far + last.connection_cost_so_far
        self._bound.update_many(events)

    @property
    def lower_bound(self) -> float:
        if self._bound is not None:
            return self._bound.value
        if self._pending_state is not None:
            return float(self._pending_state["bound"])
        return 0.0

    def summary(self) -> Dict[str, Any]:
        bound = self.lower_bound
        return {
            "num_requests": self._num_requests,
            "online_cost": self._online_cost,
            "offline_lower_bound": bound,
            "ratio_upper_bound": (self._online_cost / bound) if bound > 0 else None,
        }

    def _state(self) -> Dict[str, Any]:
        if self._bound is not None:
            bound_state: Optional[Dict[str, Any]] = self._bound.state_dict()
        elif self._pending_state is not None:
            bound_state = dict(self._pending_state)
        else:
            bound_state = None  # never bound: nothing observed yet
        return {
            "num_requests": self._num_requests,
            "online_cost": self._online_cost,
            "bound": bound_state,
        }

    def _load_state(self, state: Mapping[str, Any]) -> None:
        self._num_requests = int(state["num_requests"])
        self._online_cost = float(state["online_cost"])
        bound_state = state["bound"]
        if bound_state is None:
            self._pending_state = None
        elif self._bound is not None:
            self._bound.load_state_dict(bound_state)
        else:
            self._pending_state = dict(bound_state)
