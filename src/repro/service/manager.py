"""Hosting many named streaming sessions behind one endpoint.

:class:`SessionManager` is the in-process service core the ``repro serve``
wire protocol (:mod:`repro.service.protocol`) speaks to: it creates named
sessions from declarative :class:`~repro.api.spec.RunSpec` dicts, routes
``submit`` calls to them, and — when given a ``snapshot_dir`` — snapshots
idle sessions to disk and transparently reloads them on their next submit.
Because eviction goes through the bit-identical snapshot codec
(:mod:`repro.service.snapshot`), a session that bounced through disk any
number of times produces exactly the stream an always-resident one would.

An eviction writes the whole session to its snapshot file, and a reload
always reads it back through :meth:`OnlineSession.restore
<repro.api.session.OnlineSession.restore>`; a scenario-backed session goes
through :meth:`ScenarioSession.restore
<repro.scenarios.run.ScenarioSession.restore>`, which also refuses a stream
position that disagrees with the session.  The metric, the cost and the
commodities are fixed before the first request (the paper's online model),
so a manager with a ``max_live_sessions`` bound also keeps, when it evicts a
session whose spec draws a stock workload, the spec and the request-free
instance the session ran on.  The instance carries the tables the algorithm
derived from the metric and the cost (:mod:`repro.accel.tables`).  At most
``max_live_sessions`` instances are kept, and the oldest eviction is dropped
first.  A reload takes its name's instance back and, when the snapshot's
spec equals the kept spec, rebuilds only the algorithm and the online state
on it; those are run state and are never kept.  Every other reload rebuilds
the environment from the spec: explicit metric/cost specs, custom workload
builders, scenario-backed sessions, a restarted manager, a snapshot file
replaced with another spec, and an entry the bound dropped.

Sessions are independent by construction — each owns its algorithm instance,
online state and RNG stream — so interleaved submits to different names never
interact (pinned by ``tests/test_service.py``).
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.api.record import RunRecord
from repro.api.session import AssignmentEvent, OnlineSession
from repro.api.spec import RunSpec
from repro.exceptions import ServiceError
from repro.core.instance import Instance
from repro.service.snapshot import (
    SessionSnapshot,
    _online_spec,
    _stock_scenario_kind,
    components_from_spec,
)
from repro.trace.clock import wall_now
from repro.trace.tracer import Tracer

__all__ = ["SessionManager"]

#: Session names double as snapshot file stems, so keep them filesystem-safe.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass
class _ManagedSession:
    """One live session plus the declarative spec it was created from.

    ``stream`` is set for scenario-backed sessions: the bound
    :class:`~repro.scenarios.base.ScenarioStream` that feeds the session via
    :meth:`SessionManager.advance` (client ``submit`` is rejected there — a
    scenario owns its arrival order).
    """

    name: str
    spec: Dict[str, Any]
    session: OnlineSession
    stream: Optional[Any] = None


class SessionManager:
    """Create, route to, evict and resume named streaming sessions.

    Parameters
    ----------
    snapshot_dir:
        Directory for evicted-session snapshots (created on first use).
        Without it sessions are memory-only and eviction raises.
    max_live_sessions:
        Soft capacity: when more sessions than this are resident, the least
        recently used ones are snapshotted to disk (requires
        ``snapshot_dir``).  ``None`` keeps everything resident.  The bound
        also caps the evicted sessions' environments kept for their reloads
        (see the module docstring); without it an eviction keeps nothing.
    tracer:
        Opt-in span tracing (:mod:`repro.trace`) of the manager's I/O
        phases: disk reloads (``service.session-reload``) and evictions
        (``service.session-evict``), each carrying the session name as its
        correlation id.  The :class:`~repro.service.protocol.ServiceProtocol`
        shares its tracer with the manager, so these spans nest under the
        wire-op spans that triggered them.
    """

    def __init__(
        self,
        *,
        snapshot_dir: Optional[Union[str, Path]] = None,
        max_live_sessions: Optional[int] = None,
        tracer: Any = None,
    ) -> None:
        if max_live_sessions is not None and max_live_sessions < 1:
            raise ServiceError(
                f"max_live_sessions must be positive, got {max_live_sessions}"
            )
        if max_live_sessions is not None and snapshot_dir is None:
            raise ServiceError("max_live_sessions needs a snapshot_dir to evict into")
        self._snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self._max_live = max_live_sessions
        #: Live sessions in least-recently-used-first order.
        self._live: "OrderedDict[str, _ManagedSession]" = OrderedDict()
        #: ``(spec, instance)`` of evicted stock-workload sessions, oldest
        #: eviction first, at most ``max_live_sessions`` of them.  Only the
        #: environment: never the algorithm or the state, which are run state.
        self._kept: "OrderedDict[str, Tuple[Dict[str, Any], Instance]]" = OrderedDict()
        self._finalized: Dict[str, RunRecord] = {}
        #: Manager-wide lifetime counters, surfaced by :meth:`metrics`.
        self._counters: Dict[str, int] = {
            "created": 0,
            "requests": 0,
            "evictions": 0,
            "reloads": 0,
            "finalized": 0,
        }
        self._tracer: Optional[Tracer] = None
        self.attach_tracer(tracer)
        self._started = wall_now()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached span tracer (``None`` when tracing is disabled)."""
        return self._tracer

    def attach_tracer(self, tracer: Any) -> None:
        """Attach a tracer after construction (no-op on ``None``/``False``).

        Used by :class:`~repro.service.protocol.ServiceProtocol` so its
        wire-op tracer also records the manager's reload/evict I/O spans.
        """
        if tracer is None or tracer is False:
            return
        self._tracer = Tracer.coerce(tracer)

    # ------------------------------------------------------------------
    # Name / path helpers
    # ------------------------------------------------------------------
    def _check_name(self, name: str) -> str:
        if not isinstance(name, str) or not _NAME_PATTERN.match(name or ""):
            raise ServiceError(
                f"invalid session name {name!r}; use letters, digits, '.', '_' "
                "or '-' (names double as snapshot file stems)"
            )
        return name

    def _snapshot_path(self, name: str) -> Optional[Path]:
        # Every operation that may touch the filesystem funnels through here,
        # so validating the name at this chokepoint (not just in create())
        # keeps wire clients from smuggling path traversal into submit /
        # status / evict / close.
        self._check_name(name)
        if self._snapshot_dir is None:
            return None
        return self._snapshot_dir / f"{name}.session.json"

    def _on_disk(self, name: str) -> bool:
        path = self._snapshot_path(name)
        return path is not None and path.exists()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        spec: Mapping[str, Any],
        *,
        trace: bool = False,
        validate: bool = True,
        telemetry: Any = None,
    ) -> Dict[str, Any]:
        """Create a named session from a declarative RunSpec dict.

        The spec supplies the fixed problem environment (metric, cost,
        commodities — directly or via a workload) and the seed; any requests
        it carries are *not* pre-submitted, the stream arrives through
        :meth:`submit`.  A ``seed`` is required so that evicted sessions can
        rebuild their environment bit-identically from the spec alone.

        ``telemetry`` opts the session into streaming metrics (``True`` for
        the stock probe catalog, or a list of probe names/spec dicts — see
        :mod:`repro.telemetry`).  Eviction needs no extra handling: the
        session snapshot carries the sink state, so a reloaded session
        resumes its metrics exactly.
        """
        self._check_name(name)
        if name in self._live or name in self._finalized or self._on_disk(name):
            raise ServiceError(f"session {name!r} already exists")
        run_spec = RunSpec.from_dict(dict(spec))
        if not run_spec.is_declarative():
            raise ServiceError(
                "session specs must be declarative (plain data) so evicted "
                "sessions can be rebuilt from disk"
            )
        if run_spec.seed is None:
            raise ServiceError(
                "session specs need an explicit 'seed' so a snapshotted "
                "session can rebuild its environment deterministically"
            )
        spec_dict = run_spec.to_dict()
        stream = None
        if run_spec.scenario is not None:
            from repro.scenarios.run import scenario_session_components

            algorithm, instance, generator, stream = scenario_session_components(
                run_spec
            )
        else:
            algorithm, instance, generator = components_from_spec(spec_dict)
        session = OnlineSession(
            algorithm,
            instance.metric,
            instance.cost_function,
            commodities=instance.commodities,
            rng=generator,
            trace=trace,
            validate=validate,
            name=run_spec.name or name,
            telemetry=telemetry,
        )
        # Seed provenance: the generator object was threaded through workload
        # generation, so record the spec seed explicitly on the session.
        session._seed = run_spec.seed
        self._live[name] = _ManagedSession(
            name=name, spec=spec_dict, session=session, stream=stream
        )
        self._counters["created"] += 1
        self._enforce_capacity(keep=name)
        return self.status(name)

    def _checkout(self, name: str) -> _ManagedSession:
        """The live session entry for ``name``, reloading from disk if evicted."""
        entry = self._live.get(name)
        if entry is not None:
            self._live.move_to_end(name)
            return entry
        if name in self._finalized:
            raise ServiceError(f"session {name!r} is finalized")
        path = self._snapshot_path(name)
        if path is not None and path.exists():
            # The reload takes the kept environment back: from here on the
            # live session holds it.
            kept = self._kept.pop(name, None)
            reload_span = None
            if self._tracer is not None:
                reload_span = self._tracer.begin(
                    "service.session-reload",
                    category="service",
                    ordinal=self._counters["reloads"],
                    attributes={"session": name},
                )
            try:
                snapshot = SessionSnapshot.load(path)
                if snapshot.spec is None:
                    raise ServiceError(
                        f"snapshot for session {name!r} carries no spec; cannot reload"
                    )
                stream = None
                if snapshot.spec.get("scenario") is not None:
                    # Scenario-backed: the session and its resumed stream,
                    # checked against each other as any scenario restore is.
                    from repro.scenarios.run import ScenarioSession

                    restored = ScenarioSession.restore(snapshot)
                    session, stream = restored.session, restored.stream
                elif kept is not None and kept[0] == snapshot.spec:
                    # The instance this session ran on: only the algorithm
                    # and the state are rebuilt.
                    session = OnlineSession.restore(
                        snapshot,
                        algorithm=_online_spec(snapshot.spec).build_algorithm(),
                        instance=kept[1],
                    )
                else:
                    session = OnlineSession.restore(snapshot)
            finally:
                if reload_span is not None:
                    self._tracer.end(reload_span)
            entry = _ManagedSession(
                name=name, spec=dict(snapshot.spec), session=session, stream=stream
            )
            self._live[name] = entry
            self._counters["reloads"] += 1
            self._enforce_capacity(keep=name)
            return entry
        raise ServiceError(
            f"unknown session {name!r}; known: {', '.join(self.names()) or '(none)'}"
        )

    def _enforce_capacity(self, *, keep: Optional[str] = None) -> None:
        if self._max_live is None:
            return
        while len(self._live) > self._max_live:
            victim = next(
                (key for key in self._live if key != keep),
                None,
            )
            if victim is None:  # pragma: no cover - keep is the only session
                return
            self.evict(victim)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def submit(self, name: str, point: int, commodities: Iterable[int]) -> AssignmentEvent:
        """Route one arriving request to the named session."""
        entry = self._checkout(name)
        if entry.stream is not None:
            raise ServiceError(
                f"session {name!r} is scenario-backed; its requests come from "
                "the scenario stream — use 'advance' instead of 'submit'"
            )
        event = entry.session.submit(point, commodities)
        self._counters["requests"] += 1
        return event

    def advance(
        self, name: str, count: Optional[int] = None
    ) -> Tuple[List[AssignmentEvent], bool]:
        """Stream the next ``count`` scenario requests into a scenario session.

        Returns ``(events, exhausted)``.  Each event is fed back to the
        stream's ``observe`` hook (adaptive scenarios react to it); with
        ``count=None`` the stream is drained to its end.
        """
        entry = self._checkout(name)
        if entry.stream is None:
            raise ServiceError(
                f"session {name!r} is not scenario-backed; clients drive it "
                "with 'submit'"
            )
        if count is not None and count < 0:
            raise ServiceError(f"advance count must be non-negative, got {count}")
        if count is None and entry.stream.length is None:
            raise ServiceError(
                f"session {name!r} streams an unbounded scenario; advance "
                "needs an explicit count"
            )
        from repro.scenarios.run import step_stream

        events: List[AssignmentEvent] = []
        while count is None or len(events) < count:
            # Shared draw→submit→observe lock-step (one-request feedback
            # latency — the same loop ScenarioSession uses).  The manager's
            # tracer (if any) records the scenario draw/observe sub-phases,
            # nested under the wire-op span that triggered the advance.
            event = step_stream(entry.stream, entry.session, tracer=self._tracer)
            if event is None:
                break
            events.append(event)
        self._counters["requests"] += len(events)
        return events, entry.stream.exhausted

    def snapshot(self, name: str) -> SessionSnapshot:
        """A point-in-time snapshot of the named session (stays resident)."""
        entry = self._checkout(name)
        return entry.session.snapshot(
            spec=entry.spec,
            scenario_state=entry.stream.state_dict() if entry.stream is not None else None,
        )

    def evict(self, name: str) -> Path:
        """Snapshot the named session to disk and release its memory.

        The next :meth:`submit` (or :meth:`snapshot`/:meth:`finalize`)
        transparently restores it — bit-identically — from the file.
        Evicting a session that is already on disk returns its snapshot path
        and changes nothing.
        """
        if self._snapshot_dir is None:
            raise ServiceError("eviction needs a snapshot_dir")
        if name not in self._live and name not in self._finalized and self._on_disk(name):
            return self._snapshot_path(name)
        entry = self._checkout(name)
        evict_span = None
        if self._tracer is not None:
            evict_span = self._tracer.begin(
                "service.session-evict",
                category="service",
                ordinal=self._counters["evictions"],
                attributes={"session": name},
            )
        try:
            snapshot = entry.session.snapshot(
                spec=entry.spec,
                scenario_state=entry.stream.state_dict() if entry.stream is not None else None,
            )
            path = snapshot.save(self._snapshot_path(name))
        finally:
            if evict_span is not None:
                self._tracer.end(evict_span)
        del self._live[name]
        self._counters["evictions"] += 1
        self._keep_environment(entry)
        return path

    def _keep_environment(self, entry: _ManagedSession) -> None:
        """Keep an evicted stock-workload session's instance for its next reload."""
        if self._max_live is None or _stock_scenario_kind(entry.spec.get("workload")) is None:
            return
        self._kept[entry.name] = (entry.spec, entry.session._instance)
        while len(self._kept) > self._max_live:
            self._kept.popitem(last=False)

    def evict_all(self) -> List[str]:
        """Evict every live session (e.g. on service shutdown)."""
        names = list(self._live)
        for name in names:
            self.evict(name)
        return names

    def finalize(self, name: str) -> RunRecord:
        """Freeze the named session into a RunRecord and retire it."""
        entry = self._checkout(name)
        record = entry.session.finalize()
        del self._live[name]
        self._finalized[name] = record
        self._counters["finalized"] += 1
        path = self._snapshot_path(name)
        if path is not None and path.exists():
            path.unlink()
        return record

    def close(self, name: str) -> None:
        """Drop the named session entirely (memory, disk and records)."""
        self._kept.pop(name, None)
        known = False
        if name in self._live:
            del self._live[name]
            known = True
        if name in self._finalized:
            del self._finalized[name]
            known = True
        path = self._snapshot_path(name)
        if path is not None and path.exists():
            path.unlink()
            known = True
        if not known:
            raise ServiceError(f"unknown session {name!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """All known session names (live, evicted-to-disk and finalized)."""
        known = set(self._live) | set(self._finalized)
        if self._snapshot_dir is not None and self._snapshot_dir.is_dir():
            for path in self._snapshot_dir.glob("*.session.json"):
                known.add(path.name[: -len(".session.json")])
        return sorted(known)

    def status(self, name: str) -> Dict[str, Any]:
        """A JSON-compatible status row for one session (any residency).

        Live sessions report their running request count and wall-time spent
        inside the algorithm; when the session has telemetry attached, the
        full ``{probe kind: summary}`` map rides along under ``"telemetry"``.
        """
        entry = self._live.get(name)
        if entry is not None:
            session = entry.session
            status = {
                "name": name,
                "live": True,
                "finalized": False,
                "algorithm": session.algorithm.name,
                "num_requests": session.num_requests,
                "opening_cost": session.opening_cost,
                "connection_cost": session.connection_cost,
                "total_cost": session.total_cost,
                "runtime_seconds": session.runtime_seconds,
            }
            telemetry = session.telemetry_summary()
            if telemetry is not None:
                status["telemetry"] = telemetry
            if entry.stream is not None:
                status["scenario"] = {
                    "kind": entry.stream.scenario.kind,
                    "position": entry.stream.position,
                    "remaining": entry.stream.remaining(),
                    "exhausted": entry.stream.exhausted,
                }
            return status
        if name in self._finalized:
            record = self._finalized[name]
            return {
                "name": name,
                "live": False,
                "finalized": True,
                "algorithm": record.algorithm,
                "num_requests": record.num_requests,
                "opening_cost": record.opening_cost,
                "connection_cost": record.connection_cost,
                "total_cost": record.total_cost,
            }
        path = self._snapshot_path(name)
        if path is not None and path.exists():
            snapshot = SessionSnapshot.load(path)
            return {
                "name": name,
                "live": False,
                "finalized": False,
                "algorithm": snapshot.algorithm,
                "num_requests": snapshot.num_requests,
                "evicted": True,
            }
        raise ServiceError(
            f"unknown session {name!r}; known: {', '.join(self.names()) or '(none)'}"
        )

    def metrics(self) -> Dict[str, Any]:
        """Manager-wide live counters plus per-session telemetry summaries.

        The ``repro serve`` ``metrics`` op returns this payload: lifetime
        counters (sessions created, requests routed, evictions, disk reloads,
        finalizations), current residency, service uptime with the overall
        requests/s rate, and — for every *live* session — its request count,
        running cost and probe summaries (when telemetry is enabled).
        """
        uptime = wall_now() - self._started
        on_disk = 0
        if self._snapshot_dir is not None and self._snapshot_dir.is_dir():
            on_disk = sum(1 for _ in self._snapshot_dir.glob("*.session.json"))
        sessions: Dict[str, Any] = {}
        for name, entry in self._live.items():
            session = entry.session
            row: Dict[str, Any] = {
                "num_requests": session.num_requests,
                "total_cost": session.total_cost,
                "runtime_seconds": session.runtime_seconds,
            }
            telemetry = session.telemetry_summary()
            if telemetry is not None:
                row["telemetry"] = telemetry
            sessions[name] = row
        return {
            "counters": dict(self._counters),
            "sessions_live": len(self._live),
            "sessions_finalized": len(self._finalized),
            "sessions_on_disk": on_disk,
            "sessions_known": len(self.names()),
            "uptime_seconds": uptime,
            "requests_per_second": (
                self._counters["requests"] / uptime if uptime > 0 else None
            ),
            "sessions": sessions,
        }

    def __len__(self) -> int:
        """Number of known sessions (any residency)."""
        return len(self.names())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionManager(live={len(self._live)}, "
            f"finalized={len(self._finalized)}, dir={self._snapshot_dir})"
        )
