"""Execution traces of online algorithms.

The paper's Figures 1 and 3 are conceptual illustrations of algorithm
behaviour (rounds of the lower-bound game; the small-vs-large connection
choice of RAND-OMFLP).  The reproduction renders them as *executable traces*:
every online algorithm can record a sequence of structured events which the
corresponding experiments print as transcripts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence

from repro.exceptions import SnapshotError

__all__ = [
    "TraceEvent",
    "FacilityOpenedEvent",
    "RequestAssignedEvent",
    "DualFreezeEvent",
    "CoinFlipEvent",
    "Trace",
    "event_from_dict",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class of all trace events."""

    request_index: int

    def describe(self) -> str:
        return f"[request {self.request_index}] event"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form: field values plus the event type name.

        Frozensets and tuples become sorted lists / lists so the result
        round-trips through strict JSON; :func:`event_from_dict` is the
        inverse.
        """
        data: Dict[str, Any] = {"type": type(self).__name__}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, frozenset):
                value = sorted(value)
            elif isinstance(value, tuple):
                value = list(value)
            data[spec.name] = value
        return data


@dataclass(frozen=True)
class FacilityOpenedEvent(TraceEvent):
    """A facility was opened while processing a request."""

    facility_id: int = -1
    point: int = -1
    configuration: FrozenSet[int] = frozenset()
    opening_cost: float = 0.0
    is_large: bool = False

    def describe(self) -> str:
        kind = "large" if self.is_large else "small"
        config = "S" if self.is_large else str(sorted(self.configuration))
        return (
            f"[request {self.request_index}] opened {kind} facility #{self.facility_id} "
            f"at point {self.point} offering {config} (cost {self.opening_cost:.4f})"
        )


@dataclass(frozen=True)
class RequestAssignedEvent(TraceEvent):
    """A request was (fully) connected."""

    facility_ids: Sequence[int] = ()
    connection_cost: float = 0.0
    via_large: bool = False

    def describe(self) -> str:
        mode = "a single large facility" if self.via_large else f"{len(self.facility_ids)} facility(ies)"
        return (
            f"[request {self.request_index}] connected via {mode} "
            f"{sorted(self.facility_ids)} (connection cost {self.connection_cost:.4f})"
        )


@dataclass(frozen=True)
class DualFreezeEvent(TraceEvent):
    """A dual variable a_{re} stopped increasing (PD-OMFLP)."""

    commodity: int = -1
    value: float = 0.0
    reason: str = ""

    def describe(self) -> str:
        return (
            f"[request {self.request_index}] froze dual a_(r,{self.commodity}) = "
            f"{self.value:.4f} ({self.reason})"
        )


@dataclass(frozen=True)
class CoinFlipEvent(TraceEvent):
    """A randomized opening decision (RAND-OMFLP)."""

    kind: str = "small"  # "small" or "large"
    commodity: Optional[int] = None
    class_index: int = 0
    probability: float = 0.0
    success: bool = False

    def describe(self) -> str:
        target = "large facility" if self.kind == "large" else f"small facility for commodity {self.commodity}"
        outcome = "OPENED" if self.success else "skipped"
        return (
            f"[request {self.request_index}] coin flip for {target}, class {self.class_index}, "
            f"p = {self.probability:.4f} -> {outcome}"
        )


#: Concrete event types by class name, for :func:`event_from_dict`.
_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        TraceEvent,
        FacilityOpenedEvent,
        RequestAssignedEvent,
        DualFreezeEvent,
        CoinFlipEvent,
    )
}


def event_from_dict(data: Mapping[str, Any]) -> TraceEvent:
    """Rebuild a trace event from its :meth:`TraceEvent.to_dict` form."""
    kind = data.get("type")
    cls = _EVENT_TYPES.get(str(kind))
    if cls is None:
        raise SnapshotError(
            f"unknown trace event type {kind!r}; known: {', '.join(sorted(_EVENT_TYPES))}"
        )
    fields = {str(key): value for key, value in data.items() if key != "type"}
    if cls is FacilityOpenedEvent:
        fields["configuration"] = frozenset(int(e) for e in fields.get("configuration", ()))
    if cls is RequestAssignedEvent:
        fields["facility_ids"] = tuple(int(f) for f in fields.get("facility_ids", ()))
    try:
        return cls(**fields)
    except TypeError as error:
        raise SnapshotError(f"malformed {kind} trace event: {error}") from None


class Trace:
    """An append-only list of trace events with pretty-printing helpers.

    :meth:`record` drops events while the trace is disabled, but callers
    build events only under ``if trace.enabled:``, so a disabled trace (the
    default) costs no event construction; new event sites must guard the
    same way.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        if self.enabled:
            self._events.append(event)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot of the trace (flag plus events)."""
        return {
            "enabled": self.enabled,
            "events": [event.to_dict() for event in self._events],
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Replace the trace contents with a snapshot's events."""
        self.enabled = bool(state["enabled"])
        self._events = [event_from_dict(entry) for entry in state["events"]]

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def events_for_request(self, request_index: int) -> List[TraceEvent]:
        return [e for e in self._events if e.request_index == request_index]

    def facility_openings(self) -> List[FacilityOpenedEvent]:
        return [e for e in self._events if isinstance(e, FacilityOpenedEvent)]

    def transcript(self) -> str:
        """Multi-line human-readable transcript of the whole run."""
        return "\n".join(event.describe() for event in self._events)

    def __len__(self) -> int:
        return len(self._events)
