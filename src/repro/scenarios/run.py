"""Driving scenarios through streaming sessions.

:class:`ScenarioSession` pairs a bound :class:`~repro.scenarios.base.ScenarioStream`
with an :class:`~repro.api.session.OnlineSession` and keeps the two in
lock-step: one request is drawn from the stream, submitted, and its
:class:`~repro.api.session.AssignmentEvent` fed back through the stream's
``observe`` hook *before* the next request is drawn — the one-request
feedback latency of the lower-bound game runners, which is what lets the
adaptive adversary react.  Memory stays O(1) on the scenario side (the full
request sequence is never materialized), and one
:meth:`ScenarioSession.snapshot` captures *both* sides — algorithm state and
generator position — so a durable session resumes the scenario exactly where
it left off.

Seeding convention: a scenario-backed spec's root ``seed`` spawns two
prefix-stable child seeds — one for the scenario (which internally splits
again into environment and arrival streams), one for the algorithm's
generator — via :func:`derive_session_seeds`.  Everything downstream is a
pure function of the root seed, so scenario runs are exactly reproducible
and shard-invariant under the engine.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple, Union

from repro.api.record import RunRecord
from repro.api.session import AssignmentEvent, OnlineSession
from repro.api.spec import RunSpec
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.exceptions import ScenarioError
from repro.scenarios.base import Scenario, ScenarioStream
from repro.trace.clock import wall_now
from repro.utils.rng import RandomState, ensure_rng, spawn_child_seeds

__all__ = [
    "ScenarioSession",
    "derive_session_seeds",
    "run_spec_streamed",
    "scenario_session_components",
    "step_stream",
]


def step_stream(stream: ScenarioStream, session: OnlineSession, tracer: Any = None):
    """Draw one request, submit it, feed the event back; ``None`` at the end.

    The single shared implementation of the draw→submit→observe lock-step
    (used by :class:`ScenarioSession` and the service layer): the one-request
    feedback latency is load-bearing for adaptive-adversary determinism, so
    it must not be re-implemented with different ordering elsewhere.

    ``tracer`` (a :class:`~repro.trace.tracer.Tracer`, usually the session's
    own) additionally records the scenario-generation sub-phases —
    ``scenario.draw`` and ``scenario.observe`` — on its deterministic
    stratified detail sample of request indices (the same sample the
    session uses for its submit sub-spans).  Sub-phases that need their own
    clock reads are deliberately *sampled*, not measured per request: the
    only per-request fold is ``algorithm.process`` inside the session,
    whose elapsed time is measured anyway, which is what keeps a traced
    million-request stream within the tracing overhead budget
    (``benchmarks/bench_trace.py``).
    """
    if tracer is not None and tracer.should_detail(session.num_requests):
        index = session.num_requests
        draw_start = wall_now()
        got = stream.take(1)
        tracer.add(
            "scenario.draw",
            category="scenario",
            ordinal=index,
            seconds=wall_now() - draw_start,
            wall_start=draw_start,
            attributes={"exhausted": not got},
        )
        if not got:
            return None
        point, commodities = got[0]
        event = session.submit(point, commodities)
        observe_start = wall_now()
        stream.observe(event)
        tracer.add(
            "scenario.observe",
            category="scenario",
            ordinal=index,
            seconds=wall_now() - observe_start,
            wall_start=observe_start,
        )
        return event
    got = stream.take(1)
    if not got:
        return None
    point, commodities = got[0]
    event = session.submit(point, commodities)
    stream.observe(event)
    return event


def derive_session_seeds(seed: RandomState) -> Tuple[int, int]:
    """``(scenario_seed, algorithm_seed)`` from a spec's root seed."""
    scenario_seed, algorithm_seed = spawn_child_seeds(seed, 2)
    return scenario_seed, algorithm_seed


def _coerce_spec(spec: Union[RunSpec, Mapping[str, Any]]) -> RunSpec:
    run_spec = spec if isinstance(spec, RunSpec) else RunSpec.from_dict(dict(spec))
    if run_spec.scenario is None:
        raise ScenarioError("this spec names no scenario")
    return run_spec


def scenario_session_components(
    spec: Union[RunSpec, Mapping[str, Any]]
) -> Tuple[Any, Instance, Any, ScenarioStream]:
    """``(algorithm, environment instance, generator, stream)`` for a scenario spec.

    The instance carries the scenario's fixed environment with an *empty*
    request sequence — a streaming session never sees the future.  Used by
    the service layer (session creation and snapshot restore) and by
    :class:`ScenarioSession` itself.
    """
    run_spec = _coerce_spec(spec)
    if run_spec.mode() != "online":
        raise ScenarioError(
            "scenario streams feed online algorithms; for offline solves "
            "realize the scenario into an instance instead"
        )
    scenario = run_spec.build_scenario()
    scenario_seed, algorithm_seed = derive_session_seeds(run_spec.seed)
    stream = scenario.open(scenario_seed)
    env = stream.environment
    instance = Instance(
        env.metric,
        env.cost,
        RequestSequence([]),
        commodities=env.commodities,
        name=run_spec.name or env.name,
    )
    return run_spec.build_algorithm(), instance, ensure_rng(algorithm_seed), stream


class ScenarioSession:
    """A scenario stream feeding an online session, as one object.

    Parameters
    ----------
    spec:
        A declarative :class:`~repro.api.spec.RunSpec` (or its dict form)
        whose ``scenario`` entry names the arrival process and whose
        ``algorithm`` is an online algorithm.
    telemetry:
        Opt-in streaming metrics, forwarded to the underlying
        :class:`OnlineSession` (``True``, a probe list, or a prebuilt
        :class:`~repro.telemetry.sink.TelemetrySink`); passive by contract,
        so the streamed run is bit-identical with or without it.
    tracer:
        Opt-in span tracing, shared with the underlying session: the same
        :class:`~repro.trace.tracer.Tracer` records the scenario-generation
        sub-phases (``scenario.draw`` / ``scenario.observe``), per-chunk
        ``session.advance`` spans and the session's own submit spans, so
        one trace shows the whole lock-step.  Passive like telemetry.
    """

    def __init__(
        self,
        spec: Union[RunSpec, Mapping[str, Any]],
        *,
        telemetry: Any = None,
        tracer: Any = None,
    ) -> None:
        run_spec = _coerce_spec(spec)
        algorithm, instance, generator, stream = scenario_session_components(run_spec)
        self._spec = run_spec
        self._stream = stream
        self._session = OnlineSession(
            algorithm,
            instance.metric,
            instance.cost_function,
            commodities=instance.commodities,
            rng=generator,
            trace=run_spec.trace,
            validate=run_spec.validate,
            name=instance.name,
            telemetry=telemetry,
            tracer=tracer,
        )
        # Seed provenance mirrors the SessionManager convention: the root
        # spec seed (not the derived child) is what reproduces the run.
        self._session._seed = run_spec.seed
        # The session owns coercion (True → fresh Tracer); share the result.
        self._tracer = self._session.tracer
        self._advance_ordinal = 0

    # ------------------------------------------------------------------
    @property
    def spec(self) -> RunSpec:
        return self._spec

    @property
    def stream(self) -> ScenarioStream:
        return self._stream

    @property
    def session(self) -> OnlineSession:
        return self._session

    @property
    def scenario(self) -> Scenario:
        return self._stream.scenario

    @property
    def position(self) -> int:
        """Requests streamed into the session so far."""
        return self._stream.position

    @property
    def exhausted(self) -> bool:
        return self._stream.exhausted

    @property
    def telemetry(self):
        """The underlying session's telemetry sink (``None`` when disabled)."""
        return self._session.telemetry

    def telemetry_summary(self) -> Optional[Mapping[str, Any]]:
        """``{probe kind: summary}`` of the underlying session, or ``None``."""
        return self._session.telemetry_summary()

    @property
    def tracer(self):
        """The shared span tracer (``None`` when tracing is disabled)."""
        return self._tracer

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def step(self) -> Optional[AssignmentEvent]:
        """Serve exactly one scenario request (``None`` when exhausted).

        The event is fed back to the stream's ``observe`` hook before
        returning, so the next draw already sees the algorithm's reaction.
        """
        return step_stream(self._stream, self._session, tracer=self._tracer)

    def advance(self, count: Optional[int] = None) -> List[AssignmentEvent]:
        """Stream up to ``count`` requests (all remaining when ``None``)
        and return their events.

        When tracing is on, each call records one ``session.advance`` chunk
        span (ordinal = call sequence) parenting the chunk's detail spans —
        per-chunk aggregation is what keeps multi-million-request streams
        O(buffer) in trace memory.
        """
        if count is not None and count < 0:
            raise ScenarioError(f"advance() count must be non-negative, got {count}")
        tracer = self._tracer
        chunk_span = None
        if tracer is not None:
            chunk_span = tracer.begin(
                "session.advance",
                category="scenario",
                ordinal=self._advance_ordinal,
                attributes={"requested": count, "start_index": self.position},
            )
            self._advance_ordinal += 1
        events: List[AssignmentEvent] = []
        try:
            while count is None or len(events) < count:
                event = self.step()
                if event is None:
                    break
                events.append(event)
        finally:
            if chunk_span is not None:
                tracer.end(chunk_span, attributes={"served": len(events)})
        return events

    def run(self, *, max_requests: Optional[int] = None) -> RunRecord:
        """Stream the scenario to completion and finalize the record.

        Unbounded scenarios need ``max_requests``.  Events are discarded as
        they are served (unlike :meth:`advance`), so scenario-side memory
        stays O(1) even for multi-million-request streams.
        """
        if self._stream.length is None and max_requests is None:
            raise ScenarioError(
                f"scenario {self.scenario.kind!r} is unbounded; run() needs "
                "max_requests"
            )
        served = 0
        while max_requests is None or served < max_requests:
            if self.step() is None:
                break
            served += 1
        return self.finalize()

    def finalize(self) -> RunRecord:
        """Freeze the underlying session, stamping spec provenance."""
        record = self._session.finalize()
        if self._spec.is_declarative():
            record.spec = self._spec.to_dict()
        return record

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def snapshot(self) -> "SessionSnapshot":
        """One restorable capture of algorithm state *and* stream position."""
        if self._spec.seed is None:
            # Without a root seed the environment came from fresh OS entropy;
            # a restore would rebuild a *different* random environment and
            # silently continue on it — refuse instead of corrupting.
            raise ScenarioError(
                "scenario sessions need an explicit spec seed to snapshot; "
                "the environment cannot be rebuilt deterministically without one"
            )
        return self._session.snapshot(
            spec=self._spec.to_dict(),
            scenario_state=self._stream.state_dict(),
        )

    @classmethod
    def restore(
        cls, snapshot: Union["SessionSnapshot", Mapping[str, Any], str]
    ) -> "ScenarioSession":
        """Resume a :meth:`snapshot` bit-identically (fresh-process safe)."""
        from repro.service.snapshot import SessionSnapshot

        snapshot = SessionSnapshot.coerce(snapshot)
        if snapshot.spec is None or snapshot.spec.get("scenario") is None:
            raise ScenarioError(
                "snapshot carries no scenario spec; only ScenarioSession "
                "snapshots restore into a ScenarioSession"
            )
        if snapshot.scenario_state is None:
            raise ScenarioError(
                "snapshot carries no scenario stream state; it was not taken "
                "through ScenarioSession.snapshot()"
            )
        spec = RunSpec.from_dict(dict(snapshot.spec))
        if spec.seed is None:
            raise ScenarioError(
                "snapshot spec carries no seed; the scenario environment "
                "cannot be rebuilt deterministically"
            )
        # One environment build serves both sides: the session restore (via
        # the explicit algorithm/instance path) and the resumed stream.
        algorithm, instance, _generator, stream = scenario_session_components(spec)
        session = OnlineSession.restore(
            snapshot, algorithm=algorithm, instance=instance
        )
        stream.load_state_dict(snapshot.scenario_state)
        if stream.position != session.num_requests:
            raise ScenarioError(
                f"snapshot is inconsistent: stream position {stream.position} "
                f"vs {session.num_requests} session requests"
            )
        restored = cls.__new__(cls)
        restored._spec = spec
        restored._stream = stream
        restored._session = session
        # Tracing is profiling-only and deliberately not part of snapshots;
        # a restored session starts untraced (attach a fresh tracer if
        # profiling the resumed run).
        restored._tracer = None
        restored._advance_ordinal = 0
        return restored

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScenarioSession(kind={self.scenario.kind!r}, "
            f"position={self.position}, total_cost={self._session.total_cost:.4f})"
        )


def run_spec_streamed(spec: Union[RunSpec, Mapping[str, Any]]) -> RunRecord:
    """Execute a scenario-backed :class:`RunSpec` (the :func:`repro.api.run.run`
    dispatch target for scenario specs).

    Online specs stream through a :class:`ScenarioSession` without ever
    materializing the instance; offline specs realize the scenario eagerly
    (bit-identical to the stream by construction) and solve it.
    """
    run_spec = _coerce_spec(spec)
    if run_spec.mode() == "offline":
        # build_instance owns the scenario realization (same seed derivation
        # as the streamed path — one copy of the convention).
        instance = run_spec.build_instance()
        solver = run_spec.build_algorithm()
        result = solver.solve(instance)
        return RunRecord.from_offline_result(
            result,
            num_requests=instance.num_requests,
            seed=run_spec.seed,
            spec=run_spec.to_dict() if run_spec.is_declarative() else None,
        )
    session = ScenarioSession(run_spec)
    return session.run()
