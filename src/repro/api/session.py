"""Streaming online sessions — the paper's true online model.

:class:`OnlineSession` runs an online algorithm over a request stream of
*unknown length*: requests are submitted one at a time with
:meth:`OnlineSession.submit`, each returning an :class:`AssignmentEvent` with
the irrevocable decision and its incremental cost, and
:meth:`OnlineSession.finalize` freezes the run into a
:class:`~repro.api.record.RunRecord`.  Nothing about the future of the stream
is needed up front — only the metric space and the cost function, which the
problem definition fixes in advance (Section 1.1).

The batch entry point :func:`repro.algorithms.base.run_online` is a thin
wrapper that feeds a materialized request sequence through a session, so batch
and streaming execution are the same code path and produce bit-identical
costs for the same seed.

Example
-------
>>> from repro.api import OnlineSession
>>> from repro import PDOMFLPAlgorithm, PowerCost, uniform_line_metric
>>> session = OnlineSession(
...     PDOMFLPAlgorithm(), uniform_line_metric(8), PowerCost(4, 1.0)
... )
>>> event = session.submit(1, {0, 1})        # a request arrives
>>> event.connection_cost >= 0.0
True
>>> record = session.finalize()
>>> record.total_cost == event.total_cost_so_far
True
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.algorithms.base import OnlineAlgorithm, OnlineResult
from repro.api.record import RunRecord
from repro.core.commodities import CommodityUniverse
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.solution import CostBreakdown
from repro.core.state import OnlineState
from repro.core.trace import Trace
from repro.costs.base import FacilityCostFunction
from repro.exceptions import AlgorithmError, SnapshotError
from repro.metric.base import MetricSpace
from repro.trace.clock import wall_now
from repro.trace.tracer import _FOLD_FLUSH_EVERY, Tracer
from repro.utils.rng import RandomState, ensure_rng, rng_from_state, rng_state

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance, types only
    from repro.telemetry.sink import TelemetrySink

__all__ = ["AssignmentEvent", "OnlineSession"]


@dataclass(frozen=True, init=False)
class AssignmentEvent:
    """The irrevocable outcome of serving one streamed request.

    Attributes
    ----------
    request_index:
        Arrival position of the request (0-based).
    point, commodities:
        The request itself.
    facility_ids:
        The facilities the request's commodities were connected to.
    opening_cost_delta:
        Opening cost charged while serving this request (0 when only existing
        facilities were reused).
    connection_cost:
        Connection cost of this request's assignment.
    opening_cost_so_far, connection_cost_so_far:
        Session cost totals after this request.

    Every submit builds one, so the constructor is written out, like
    :class:`~repro.core.requests.Request`'s: one ``__dict__.update`` in place
    of the generated frozen ``__init__``'s eight ``object.__setattr__``
    calls.  It checks nothing, as the generated one did not.  ``==``,
    ``hash``, ``repr``, :func:`dataclasses.fields` and
    :func:`dataclasses.replace`, pickling and ``FrozenInstanceError`` on
    assignment stay generated.
    """

    request_index: int
    point: int
    commodities: FrozenSet[int]
    facility_ids: Tuple[int, ...]
    opening_cost_delta: float
    connection_cost: float
    opening_cost_so_far: float
    connection_cost_so_far: float

    def __init__(
        self,
        request_index: int,
        point: int,
        commodities: FrozenSet[int],
        facility_ids: Tuple[int, ...],
        opening_cost_delta: float,
        connection_cost: float,
        opening_cost_so_far: float,
        connection_cost_so_far: float,
    ) -> None:
        self.__dict__.update(
            request_index=request_index,
            point=point,
            commodities=commodities,
            facility_ids=facility_ids,
            opening_cost_delta=opening_cost_delta,
            connection_cost=connection_cost,
            opening_cost_so_far=opening_cost_so_far,
            connection_cost_so_far=connection_cost_so_far,
        )

    @property
    def cost_delta(self) -> float:
        """Total cost charged for this request."""
        return self.opening_cost_delta + self.connection_cost

    @property
    def total_cost_so_far(self) -> float:
        """Session total cost after this request."""
        return self.opening_cost_so_far + self.connection_cost_so_far

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON-compatible form (frozensets become sorted lists).

        This is the event shape the :mod:`repro.service` wire protocol puts on
        the wire; :meth:`from_dict` is the exact inverse.
        """
        return {
            "request_index": self.request_index,
            "point": self.point,
            "commodities": sorted(self.commodities),
            "facility_ids": list(self.facility_ids),
            "opening_cost_delta": self.opening_cost_delta,
            "connection_cost": self.connection_cost,
            "opening_cost_so_far": self.opening_cost_so_far,
            "connection_cost_so_far": self.connection_cost_so_far,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AssignmentEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        return cls(
            request_index=int(data["request_index"]),
            point=int(data["point"]),
            commodities=frozenset(int(e) for e in data["commodities"]),
            facility_ids=tuple(int(f) for f in data["facility_ids"]),
            opening_cost_delta=float(data["opening_cost_delta"]),
            connection_cost=float(data["connection_cost"]),
            opening_cost_so_far=float(data["opening_cost_so_far"]),
            connection_cost_so_far=float(data["connection_cost_so_far"]),
        )


#: How many served events accumulate before the session fans them out to the
#: telemetry sink (see OnlineSession._flush_telemetry).  Small enough that the
#: batch stays in L1, large enough to amortize the probes' cache refill.
_TELEMETRY_FLUSH_EVERY = 64


class OnlineSession:
    """An online algorithm run fed one request at a time.

    Parameters
    ----------
    algorithm:
        The online algorithm; ``prepare`` is called immediately (it may only
        rely on the metric and cost function, which is all the paper's online
        model reveals in advance).
    metric, cost:
        The fixed problem environment.
    commodities:
        Optional commodity universe with names (defaults to the cost
        function's ``|S|`` anonymous commodities).
    rng:
        Seed or generator for randomized algorithms.  An ``int`` seed is
        recorded on the final :class:`RunRecord`; the exact serialized
        bit-generator state at session start is recorded as well
        (``RunRecord.rng_state``), so provenance survives even when a live
        generator is passed.
    trace:
        Record structured trace events.
    validate:
        In :meth:`finalize`, check the frozen request log in one vectorized
        pass (:meth:`~repro.core.state.OnlineState.validate_log`): every
        request point lies in the metric, and every logged facility exists
        and offers the commodity it serves.  Each assignment was already
        validated object by object when it was recorded.
    name:
        Instance name used in result rows.
    instance:
        Advanced: pass a fully-materialized instance for the algorithm's
        ``prepare`` hook to see instead of the session's own requestless one.
        Streaming sessions leave this unset (the future is unknown); the batch
        shim :func:`~repro.algorithms.base.run_online` sets it so algorithms
        that inspect ``instance.requests`` keep their pre-session semantics.
    telemetry:
        Opt-in streaming metrics (:mod:`repro.telemetry`).  ``True`` attaches
        the stock probe catalog; a list of probe names/spec dicts or a
        prebuilt :class:`~repro.telemetry.sink.TelemetrySink` selects probes
        explicitly; ``None`` (the default) disables telemetry entirely.
        Telemetry is passive: probes only read the served events, never the
        session's RNG, state or clock, so enabling it is bit-identical to
        running without it.  Per-request latency comes from ``tracer``.
    tracer:
        Opt-in span tracing (:mod:`repro.trace`).  ``True`` attaches a
        default :class:`~repro.trace.tracer.Tracer`; a prebuilt tracer is
        used as-is (and may be shared, e.g. with the engine or service
        layer); ``None`` (the default) disables tracing at zero cost.
        Tracing inherits the telemetry passivity contract: a traced run's
        events, costs and RNG draws are exact-``==`` to an untraced run's.
        Per-request sub-phase spans (and sub-phase timing) are recorded for
        the tracer's deterministic stratified sample of requests; *every*
        request folds ``algorithm.process`` — the phase measured anyway for
        ``runtime_seconds`` — into the per-phase latency aggregates, so
        ``tracer.phase_summary()["algorithm.process"]`` holds the session's
        per-request latency percentiles.
        Distinct from ``trace``, which records the algorithm's structured
        decision trace.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        metric: MetricSpace,
        cost: FacilityCostFunction,
        *,
        commodities: Optional[CommodityUniverse] = None,
        rng: RandomState = None,
        trace: bool = False,
        validate: bool = True,
        name: str = "session",
        instance: Optional[Instance] = None,
        telemetry: Any = None,
        tracer: Any = None,
    ) -> None:
        self._algorithm = algorithm
        self._seed = int(rng) if isinstance(rng, (int, np.integer)) else None
        self._rng = ensure_rng(rng)
        # Full provenance even for non-int rng inputs (an externally supplied
        # generator has no seed): the exact bit-generator state at session
        # start is recorded on the final RunRecord alongside the optional
        # seed, and anchors snapshot/restore.
        self._initial_rng_state = rng_state(self._rng)
        self._validate = validate
        if tracer is None or tracer is False:
            self._tracer = None
        else:
            self._tracer = Tracer.coerce(tracer)
            # Per-request tracer state kept on the session (see submit): the
            # first index at or after _num_requests in the detail sample, and
            # the fold buffer of algorithm.process with the tracer's bound.
            self._next_detail = self._tracer.next_detail(0)
            self._process_folds = self._tracer.phase_buffer("algorithm.process")
            self._fold_limit = _FOLD_FLUSH_EVERY
        if instance is None:
            instance = Instance(
                metric, cost, RequestSequence([]), commodities=commodities, name=name
            )
        self._instance = instance
        build_start = wall_now()
        self._state = OnlineState(self._instance, trace=Trace(enabled=trace))
        if self._tracer is not None:
            # Covers building the online state and its facility store.
            self._tracer.add(
                "session.state-build",
                category="session",
                seconds=wall_now() - build_start,
                wall_start=build_start,
            )
        self._num_requests = 0
        self._runtime = 0.0
        self._record: Optional[RunRecord] = None
        # Served events waiting to be fanned out to the telemetry sink; see
        # _flush_telemetry for why delivery is micro-batched.
        self._pending_events: List["AssignmentEvent"] = []
        if telemetry is None or telemetry is False:
            self._telemetry = None
        else:
            # Imported lazily: repro.telemetry depends on this module (probes
            # consume AssignmentEvent), so a top-level import would be a cycle.
            from repro.telemetry.sink import TelemetrySink

            self._telemetry = TelemetrySink.coerce(telemetry)
            if self._telemetry is not None:
                self._telemetry.bind(
                    self._instance.metric, self._instance.cost_function
                )
        start = wall_now()
        algorithm.prepare(self._instance, self._state, self._rng)
        elapsed = wall_now() - start
        self._runtime += elapsed
        if self._tracer is not None:
            self._tracer.add(
                "session.prepare",
                category="session",
                seconds=elapsed,
                wall_start=start,
                attributes={"algorithm": algorithm.name},
            )

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> OnlineAlgorithm:
        return self._algorithm

    @property
    def state(self) -> OnlineState:
        return self._state

    @property
    def num_requests(self) -> int:
        """Requests served so far."""
        return self._num_requests

    @property
    def opening_cost(self) -> float:
        return self._state.current_opening_cost()

    @property
    def connection_cost(self) -> float:
        return self._state.current_connection_cost()

    @property
    def total_cost(self) -> float:
        """Running total cost (incrementally maintained, O(1))."""
        return self._state.current_total_cost()

    @property
    def finalized(self) -> bool:
        return self._record is not None

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock seconds spent inside the algorithm so far."""
        return self._runtime

    @property
    def telemetry(self) -> Optional["TelemetrySink"]:
        """The attached telemetry sink (``None`` when telemetry is disabled)."""
        self._flush_telemetry()
        return self._telemetry

    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached span tracer (``None`` when tracing is disabled)."""
        return self._tracer

    def telemetry_summary(self) -> Optional[Dict[str, Any]]:
        """``{probe kind: summary}`` of the attached sink, ``None`` if disabled."""
        if self._telemetry is None:
            return None
        self._flush_telemetry()
        return self._telemetry.summary()

    def _flush_telemetry(self) -> None:
        """Hand the pending events to the sink as one batch, in arrival order.

        Delivery is micro-batched (every ``_TELEMETRY_FLUSH_EVERY`` submits,
        plus before any read of the sink): between two requests the algorithm
        churns through enough metric/NumPy state to evict the probes'
        accumulators from cache, so per-event fan-out pays a cache miss per
        counter, while a batch pays it once and each probe folds the whole
        batch in one pass
        (:meth:`~repro.telemetry.sink.TelemetrySink.record_batch`).  Probes
        still see every event exactly once, in order — only the *when*
        changes, and every externally observable read point flushes first.
        """
        events = self._pending_events
        if not events:
            return
        sink = self._telemetry
        if sink is not None:
            sink.record_batch(events)
        events.clear()

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def submit(self, point: int, commodities: Iterable[int]) -> AssignmentEvent:
        """Serve the next arriving request ``(point, commodities)``.

        The algorithm's decision is applied immediately and irrevocably; the
        returned event reports which facilities were used and what the request
        cost on top of the session's running totals.
        """
        if self._record is not None:
            raise AlgorithmError("cannot submit to a finalized session")
        # Built and checked once: Request checks the sign of the point and
        # that some commodity is demanded, the instance the point's range and
        # the commodities' (against bounds it read when it was built).
        index = self._num_requests
        request = Request(index, int(point), frozenset(map(int, commodities)))
        # Tracing of the hot path: the real work phase (algorithm.process)
        # folds into the per-phase latency aggregates on every request, at
        # zero extra clock reads — its elapsed time is measured exactly once
        # either way and feeds RunRecord.runtime_seconds and the tracer
        # alike.  The bookkeeping envelope (submit total, validate, event
        # assembly) is measured only on the tracer's deterministic
        # stratified sample of requests, which additionally gets a full span
        # tree (submit → validate / process / event); measuring it on every
        # request would cost more clock reads and folds than the phases are
        # worth at streaming scale.
        tracer = self._tracer
        detail = False
        if tracer is not None:
            # One compare decides: the tracer is asked for the next sampled
            # index only after a sampled request (see the end of submit).
            detail = index == self._next_detail
            if detail:
                submit_span = tracer.begin(
                    "session.submit",
                    category="session",
                    ordinal=index,
                    attributes={
                        "point": request.point,
                        "num_commodities": len(request.commodities),
                    },
                )
                validate_start = wall_now()
        self._instance.validate_request(request)
        if detail:
            tracer.add(
                "session.validate",
                category="session",
                ordinal=index,
                seconds=wall_now() - validate_start,
                wall_start=validate_start,
            )

        state = self._state
        opening_before, connection_before = state.current_costs()
        start = wall_now()
        self._algorithm.process(request, state, self._rng)
        elapsed = wall_now() - start
        self._runtime += elapsed
        if tracer is not None:
            if detail:
                tracer.add(
                    "algorithm.process",
                    category="algorithm",
                    ordinal=index,
                    seconds=elapsed,
                    wall_start=start,
                )
                event_start = wall_now()
            else:
                # tracer.record_phase("algorithm.process", elapsed), inlined.
                folds = self._process_folds
                folds.append(elapsed)
                if len(folds) >= self._fold_limit:
                    tracer._flush_folds()
        try:
            facility_ids = state.facility_ids_of(index)
        except KeyError as error:
            raise AlgorithmError(
                f"{self._algorithm.name} finished processing request {index} "
                "without recording an assignment"
            ) from error
        self._num_requests = index + 1

        opening_after, connection_after = state.current_costs()
        event = AssignmentEvent(
            index,
            request.point,
            request.commodities,
            facility_ids,
            opening_after - opening_before,
            connection_after - connection_before,
            opening_after,
            connection_after,
        )
        if self._telemetry is not None:
            # Probes read the event only: no clock reads, no RNG draws,
            # nothing fed back into the algorithm.
            self._pending_events.append(event)
            if len(self._pending_events) >= _TELEMETRY_FLUSH_EVERY:
                self._flush_telemetry()
        if detail:
            tracer.add(
                "session.event",
                category="session",
                ordinal=request.index,
                seconds=wall_now() - event_start,
                wall_start=event_start,
            )
            tracer.end(
                submit_span,
                attributes={
                    "opening_cost_delta": event.opening_cost_delta,
                    "connection_cost": event.connection_cost,
                    "facilities": len(event.facility_ids),
                },
            )
            self._next_detail = tracer.next_detail(self._num_requests)
        return event

    def submit_many(self, items: Iterable[Tuple[int, Iterable[int]]]) -> list[AssignmentEvent]:
        """Serve a burst of ``(point, commodities)`` arrivals in order."""
        return [self.submit(point, commodities) for point, commodities in items]

    # ------------------------------------------------------------------
    # Durability (snapshot / restore)
    # ------------------------------------------------------------------
    def snapshot(
        self,
        *,
        spec: Optional[Dict[str, Any]] = None,
        scenario_state: Optional[Dict[str, Any]] = None,
    ) -> "SessionSnapshot":
        """Capture a restorable, JSON-serializable snapshot of the session.

        The snapshot records the algorithm's ``state_dict``, the full online
        state (facilities, assignments, trace), the request log and the exact
        bit-generator state, so that :meth:`restore` continues the stream
        **bit-identically** to an uninterrupted run — accel caches are not
        stored but deterministically rebuilt on restore.

        ``spec`` optionally embeds the declarative :class:`~repro.api.spec.RunSpec`
        dict the session was created from, making the snapshot self-contained
        (restorable without re-supplying components); the
        :class:`~repro.service.SessionManager` always embeds it.

        ``scenario_state`` optionally embeds the driving scenario stream's
        :meth:`~repro.scenarios.base.ScenarioStream.state_dict`, so a
        scenario-backed session resumes its generator position too (the
        :class:`~repro.scenarios.run.ScenarioSession` snapshot path).
        """
        from repro.service.snapshot import SessionSnapshot

        if self._record is not None:
            raise SnapshotError("cannot snapshot a finalized session")
        self._flush_telemetry()
        return SessionSnapshot(
            algorithm=self._algorithm.name,
            algorithm_state=self._algorithm.state_dict(),
            state=self._state.state_dict(),
            seed=self._seed,
            initial_rng_state=copy.deepcopy(self._initial_rng_state),
            rng_state=rng_state(self._rng),
            validate=self._validate,
            instance_name=self._instance.name,
            runtime_seconds=self._runtime,
            num_requests=self._num_requests,
            spec=copy.deepcopy(spec) if spec is not None else None,
            scenario_state=copy.deepcopy(scenario_state)
            if scenario_state is not None
            else None,
            telemetry=self._telemetry.state_dict()
            if self._telemetry is not None
            else None,
        )

    @classmethod
    def restore(
        cls,
        snapshot: Union["SessionSnapshot", Mapping[str, Any], str],
        *,
        algorithm: Optional[OnlineAlgorithm] = None,
        metric: Optional[MetricSpace] = None,
        cost: Optional[FacilityCostFunction] = None,
        commodities: Optional[CommodityUniverse] = None,
        instance: Optional[Instance] = None,
    ) -> "OnlineSession":
        """Rebuild a session from a :meth:`snapshot` (accepts dict/JSON forms).

        Two ways to supply the fixed problem environment:

        * pass nothing extra — the snapshot must carry an embedded declarative
          ``spec``, from which the algorithm and the environment (metric,
          cost, commodities) are rebuilt; a stock workload spec draws its
          environment only, never its requests (the
          :class:`~repro.service.SessionManager` path);
        * pass a freshly built ``algorithm`` plus ``metric`` and ``cost`` (or a
          whole ``instance``) equivalent to the originals — the "fresh
          process" path when the session was constructed from live objects.

        The restored session then continues the stream bit-identically: same
        costs, same facility openings, same coin flips.
        """
        from repro.service.snapshot import SessionSnapshot, _restore_components

        snapshot = SessionSnapshot.coerce(snapshot)
        if algorithm is not None:
            if instance is not None:
                metric = instance.metric
                cost = instance.cost_function
                commodities = commodities or instance.commodities
            if metric is None or cost is None:
                raise SnapshotError(
                    "restore() needs metric and cost (or a whole instance) "
                    "alongside the algorithm"
                )
        else:
            if metric is not None or cost is not None or instance is not None:
                raise SnapshotError(
                    "restore() needs the algorithm alongside metric/cost/instance"
                )
            if snapshot.spec is None:
                raise SnapshotError(
                    "snapshot has no embedded spec; pass algorithm, metric and "
                    "cost (or instance) explicitly"
                )
            algorithm, metric, cost, commodities = _restore_components(snapshot.spec)
        if algorithm.name != snapshot.algorithm:
            raise SnapshotError(
                f"snapshot was taken from algorithm {snapshot.algorithm!r} but "
                f"restore() received {algorithm.name!r}; rebuild the algorithm "
                "with the original configuration"
            )
        session = cls(
            algorithm,
            metric,
            cost,
            commodities=commodities,
            rng=None,
            trace=snapshot.trace_enabled,
            validate=snapshot.validate,
            name=snapshot.instance_name,
            instance=instance,
        )
        session._state.load_state_dict(snapshot.state)
        session._algorithm.load_state_dict(snapshot.algorithm_state)
        session._num_requests = session._state.num_recorded
        if session._num_requests != snapshot.num_requests:
            raise SnapshotError(
                f"snapshot claims {snapshot.num_requests} requests but carries "
                f"{session._num_requests}"
            )
        session._rng = rng_from_state(snapshot.rng_state)
        session._seed = snapshot.seed
        session._initial_rng_state = copy.deepcopy(snapshot.initial_rng_state)
        session._runtime = float(snapshot.runtime_seconds)
        if snapshot.telemetry is not None:
            from repro.telemetry.sink import TelemetrySink

            sink = TelemetrySink.from_state_dict(snapshot.telemetry)
            sink.bind(metric, cost)
            session._telemetry = sink
        return session

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> RunRecord:
        """Freeze the session into a :class:`RunRecord` (idempotent).

        O(|F|), not O(n): each request's connection cost was fixed when it
        was recorded, so the connection cost is the state's running total,
        which equals ``Solution.connection_cost`` bit for bit.  The opening
        cost is split into small and large facilities by
        :meth:`~repro.core.solution.Solution.opening_split`, the same sums
        ``Solution.cost_breakdown`` uses.  With ``validate`` the frozen log
        gets one vectorized feasibility check.
        """
        if self._record is not None:
            return self._record
        finalize_start = wall_now()
        self._flush_telemetry()
        solution = self._state.to_solution()
        if self._validate:
            self._state.validate_log()
        opening_small, opening_large = solution.opening_split()
        breakdown = CostBreakdown(
            opening_small,
            opening_large,
            connection=self._state.current_connection_cost(),
        )
        result = OnlineResult(
            algorithm=self._algorithm.name,
            instance_name=self._instance.name,
            solution=solution,
            opening_cost=breakdown.opening,
            connection_cost=breakdown.connection,
            breakdown=breakdown,
            runtime_seconds=self._runtime,
            trace=self._state.trace,
            duals=self._algorithm.duals(),
        )
        self._record = RunRecord.from_online_result(
            result,
            num_requests=self._num_requests,
            seed=self._seed,
            rng_state=copy.deepcopy(self._initial_rng_state),
        )
        if self._tracer is not None:
            self._tracer.add(
                "session.finalize",
                category="session",
                ordinal=self._num_requests,
                seconds=wall_now() - finalize_start,
                wall_start=finalize_start,
                attributes={
                    "num_requests": self._num_requests,
                    "validated": bool(self._validate),
                },
            )
        return self._record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineSession(algorithm={self._algorithm.name!r}, "
            f"n={self._num_requests}, total_cost={self.total_cost:.4f})"
        )
