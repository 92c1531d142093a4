"""The JSON command/response wire protocol of ``repro serve``.

One request and one response per line, both JSON objects.  Every request
names an ``op``; every response carries ``"ok"`` plus op-specific payload, or
``{"ok": false, "error": ..., "error_type": ...}`` on failure — the server
never crashes on a bad message.  The protocol is deliberately transport
agnostic: :class:`ServiceProtocol` maps message dicts to response dicts,
:func:`serve` pumps it over a line-based stream pair (stdin/stdout in the
CLI; any file-like pair in tests).

Operations
----------
``ping``
    Liveness check; echoes the known session count.
``create``
    ``{"op": "create", "name": ..., "spec": {...RunSpec dict...}}`` — create a
    named session (optional JSON-boolean ``trace``/``validate`` flags).  An
    optional ``telemetry`` field opts the session into streaming metrics:
    ``true`` for the stock probe catalog, or a list of probe names / spec
    dicts (see :mod:`repro.telemetry`); subsequent ``status`` responses then
    carry the per-probe summaries.
``submit``
    ``{"op": "submit", "name": ..., "point": p, "commodities": [..]}`` —
    route one request; responds with the
    :meth:`~repro.api.session.AssignmentEvent.to_dict` event.  Rejected for
    scenario-backed sessions (their arrival order belongs to the scenario).
``advance``
    ``{"op": "advance", "name": ..., "count": n}`` — stream the next ``n``
    requests of a scenario-backed session (created from a spec with a
    ``scenario`` entry) out of its bound generator; responds with the event
    list, the count served and whether the stream is exhausted.  Omitting
    ``count`` drains a finite scenario to its end.
``status`` / ``list``
    Introspect one session / list all known session names.  ``status`` on a
    live session reports its running request count, cost totals and
    algorithm wall-time; with telemetry enabled the probe summaries ride
    along under ``"telemetry"``.
``metrics``
    Manager-wide live counters (sessions created/held, evictions, disk
    reloads, requests routed with the overall requests/s rate) plus a
    per-live-session roll-up — see
    :meth:`~repro.service.manager.SessionManager.metrics`.  With the
    protocol's tracer on (the default), an ``"ops"`` block rides along:
    per-wire-op latency aggregates (count, total seconds, p50/p99 from the
    tracer's reservoir) keyed by span name (``service.submit``, ...).
``snapshot``
    Return the session's full snapshot dict inline.
``evict``
    Snapshot the session to disk and release its memory (it reloads
    transparently on the next submit).
``finalize``
    Freeze the session into a result record
    (:meth:`~repro.api.record.RunRecord.to_dict`).
``close``
    Forget a session entirely.
``shutdown``
    Evict all live sessions to disk (when a snapshot dir is configured) and
    stop the serve loop.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, IO, Mapping, Optional, Union

from repro.exceptions import ReproError
from repro.service.manager import SessionManager

if TYPE_CHECKING:  # pragma: no cover - types only
    from pathlib import Path

    from repro.trace.tracer import Tracer

__all__ = ["ServiceProtocol", "serve"]


class ServiceProtocol:
    """Map wire-protocol message dicts onto a :class:`SessionManager`.

    Every dispatched op is wrapped in a ``service.<op>`` span on the
    protocol's tracer (:mod:`repro.trace`): the span ordinal is the op
    sequence number and the session ``name`` rides along as the correlation
    id, so one service trace interleaves cleanly across sessions.  Tracing
    is on by default (its per-op cost is a few microseconds against a JSON
    round-trip) and powers the ``metrics`` op's per-op latency block; pass
    ``tracer=False`` to disable it entirely, or a prebuilt
    :class:`~repro.trace.tracer.Tracer` to share one collector.  The tracer
    is shared with the manager (unless the manager already has one), so
    reload/evict I/O spans nest under the wire ops that triggered them.
    """

    def __init__(self, manager: SessionManager, tracer: Any = None) -> None:
        self._manager = manager
        if tracer is False:
            self._tracer: Optional["Tracer"] = None
        else:
            from repro.trace.tracer import Tracer

            self._tracer = manager.tracer if tracer is None else Tracer.coerce(tracer)
            if self._tracer is None:
                self._tracer = Tracer()
            if manager.tracer is None:
                manager.attach_tracer(self._tracer)
        self._op_sequence = 0

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The protocol's span tracer (``None`` when disabled)."""
        return self._tracer

    # ------------------------------------------------------------------
    def handle(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """One response dict per message dict; errors become error responses."""
        try:
            if not isinstance(message, Mapping):
                raise ReproError(f"messages must be JSON objects, got {type(message).__name__}")
            op = message.get("op")
            handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
            if handler is None:
                raise ReproError(f"unknown op {op!r}")
            tracer = self._tracer
            if tracer is None:
                return handler(message)
            ordinal = self._op_sequence
            self._op_sequence += 1
            attributes: Dict[str, Any] = {"op": op}
            name = message.get("name")
            if isinstance(name, str):
                attributes["session"] = name
            with tracer.span(
                f"service.{op}",
                category="service",
                ordinal=ordinal,
                attributes=attributes,
            ):
                return handler(message)
        except Exception as error:  # noqa: BLE001 - the server must not crash
            return {
                "ok": False,
                "error": str(error),
                "error_type": type(error).__name__,
            }

    def handle_line(self, line: str) -> str:
        """JSON-text-in, JSON-text-out convenience around :meth:`handle`."""
        return json.dumps(self._respond_to_line(line))

    def _respond_to_line(self, line: str) -> Dict[str, Any]:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as error:
            return {
                "ok": False,
                "error": f"bad JSON: {error}",
                "error_type": "JSONDecodeError",
            }
        return self.handle(message)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @staticmethod
    def _required(message: Mapping[str, Any], key: str) -> Any:
        if key not in message:
            raise ReproError(f"op {message.get('op')!r} needs a {key!r} field")
        return message[key]

    @staticmethod
    def _flag(message: Mapping[str, Any], key: str, default: bool) -> bool:
        value = message.get(key, default)
        if not isinstance(value, bool):
            raise ReproError(
                f"op {message.get('op')!r} field {key!r} must be a JSON boolean, "
                f"got {value!r}"
            )
        return value

    def _op_ping(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "pong": True, "sessions": len(self._manager)}

    def _op_create(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        name = self._required(message, "name")
        spec = self._required(message, "spec")
        status = self._manager.create(
            name,
            spec,
            trace=self._flag(message, "trace", False),
            validate=self._flag(message, "validate", True),
            telemetry=message.get("telemetry"),
        )
        return {"ok": True, "session": status}

    def _op_submit(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        name = self._required(message, "name")
        point = self._required(message, "point")
        commodities = self._required(message, "commodities")
        event = self._manager.submit(name, point, commodities)
        return {"ok": True, "name": name, "event": event.to_dict()}

    def _op_advance(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        name = self._required(message, "name")
        count = message.get("count")
        events, exhausted = self._manager.advance(
            name, int(count) if count is not None else None
        )
        return {
            "ok": True,
            "name": name,
            "served": len(events),
            "exhausted": exhausted,
            "events": [event.to_dict() for event in events],
        }

    def _op_status(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "session": self._manager.status(self._required(message, "name"))}

    def _op_list(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "sessions": self._manager.names()}

    def _op_metrics(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        metrics = self._manager.metrics()
        if self._tracer is not None:
            # Per-wire-op latency aggregates from the tracer: every handled
            # op folded in (not just the buffered spans), percentiles from
            # the per-phase reservoir.  Covers ops completed so far — the
            # in-flight metrics op itself folds when its span closes.
            metrics["ops"] = self._tracer.phase_summary(
                prefix="service.", percentiles=(50.0, 99.0)
            )
        return {"ok": True, "metrics": metrics}

    def _op_snapshot(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        name = self._required(message, "name")
        snapshot = self._manager.snapshot(name)
        return {"ok": True, "name": name, "snapshot": snapshot.to_dict()}

    def _op_evict(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        name = self._required(message, "name")
        path = self._manager.evict(name)
        return {"ok": True, "name": name, "path": str(path)}

    def _op_finalize(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        name = self._required(message, "name")
        record = self._manager.finalize(name)
        return {"ok": True, "name": name, "record": record.to_dict()}

    def _op_close(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        name = self._required(message, "name")
        self._manager.close(name)
        return {"ok": True, "name": name}

    def _op_shutdown(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        evicted: list[str] = []
        try:
            evicted = self._manager.evict_all()
        except ReproError:
            pass  # memory-only manager: nothing to persist
        return {"ok": True, "shutdown": True, "evicted": evicted}


def serve(
    manager: SessionManager,
    input_stream: IO[str],
    output_stream: IO[str],
    *,
    tracer: Any = None,
    trace_out: Optional[Union[str, "Path"]] = None,
) -> None:
    """Pump the line protocol until EOF or a ``shutdown`` op.

    Blank lines are skipped; every other input line produces exactly one
    response line, flushed immediately so pipe-based clients can interleave
    requests and responses.

    ``tracer`` configures the protocol's span tracing (see
    :class:`ServiceProtocol`); with ``trace_out`` set, the full trace
    payload is written there as JSON when the loop ends (shutdown or EOF) —
    ``repro trace export`` turns it into a Perfetto-loadable file.
    """
    protocol = ServiceProtocol(manager, tracer=tracer)
    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        response = protocol._respond_to_line(line)
        output_stream.write(json.dumps(response) + "\n")
        output_stream.flush()
        if response.get("shutdown"):
            break
    if trace_out is not None and protocol.tracer is not None:
        from repro.trace.export import write_json

        write_json(str(trace_out), protocol.tracer.to_payload())
