"""The four benchmark workloads.

Each workload is a closed loop with one client in one thread: the next
request is sent only after the previous one has returned, which is what the
paper's online model (and ``ScenarioStream.observe``) requires.  A workload
runs in *units* of fixed size -- a streamed session, a service round, an
engine sweep -- and the worker repeats units until its time budget is spent.
Every unit of a run serves exactly the same inputs, drawn from the run seed,
so the ``i``-th sample of a phase is the same work in every unit.

Every unit goes through the same phases, each timed separately:

``setup``     build the serving objects until the first request can be served;
``request``   the timed loop of requests;
``ctl``       control operations interleaved with the requests;
``finalize``  turn the finished work into its final result records;
``replay``    rebuild the finished work from its durable form;
``other``     the rest of a complete run (engine store writes, service
              shutdown), so that the phases of a run add up to its time.

and checks its own output; a failed check counts as a failed operation.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from layers import PHASES, SpanRecorder


def child_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent seeds derived from ``seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def kernel() -> int:
    """The speed probe: a fixed pure-Python loop of about 0.5 ms.

    Dict stores, integer and float arithmetic: interpreter work like most of
    the program's, and independent of the program's code.
    """
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(3500):
        table[i & 255] = total
        total += (i * 7 % 13) * 0.5
    return len(table)


class Speed:
    """The host's current speed, probed between timed calls.

    A shared host runs this process's code at two speeds about 1.5x apart,
    switching every 0.1 s in some spells and staying for minutes in others,
    and a pure-Python loop slows down in step with the workloads: their time
    ratio to :func:`kernel` stayed within 7% while their own times moved by
    1.5x.  So every ``INTERVAL`` seconds, between two timed calls, the
    kernel runs ``REPEATS`` times, and :class:`Clock` scales the times
    measured until the next probe by ``REFERENCE`` over its fastest run
    (``best``): every reported time is the time on a host where the kernel
    takes ``REFERENCE`` seconds.  A change to the program moves the scaled
    times as it moves the raw ones; a change of host speed does not.  (The
    probe just before a sample predicted it better than an average over the
    last second, which mixes the two speeds.)
    """

    INTERVAL = 0.05
    REPEATS = 3
    REFERENCE = 5e-4

    def __init__(self) -> None:
        self.best = self.REFERENCE
        #: Seconds spent probing, to be left out of times that span probes.
        self.spent = 0.0
        self._due = 0.0

    def poll(self) -> None:
        start = perf_counter()
        if start < self._due:
            return
        best = math.inf
        for _ in range(self.REPEATS):
            begin = perf_counter()
            kernel()
            best = min(best, perf_counter() - begin)
        self.best = best
        end = perf_counter()
        self.spent += end - start
        self._due = end + self.INTERVAL


class Clock:
    """Times one call per phase; in a traced run the call is also a root span.

    Untraced, times are scaled to the reference speed (see :class:`Speed`);
    traced, they are raw, since the trace compares layers within one run.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self._recorder = recorder
        self.speed = Speed() if recorder is None else None
        if recorder is not None:
            self._ids = {phase: recorder.name_id(f"bench.{phase}") for phase in PHASES}

    def poll(self) -> None:
        if self.speed is not None:
            self.speed.poll()

    def mark(self) -> Tuple[float, float, float]:
        """A start point for :meth:`since`."""
        self.poll()
        if self.speed is None:
            return perf_counter(), 0.0, 0.0
        return perf_counter(), self.speed.spent, self.speed.best

    def since(self, mark: Tuple[float, float, float]) -> float:
        """Scaled seconds since ``mark``, less the probes run in between."""
        end = perf_counter()
        start, spent, best = mark
        speed = self.speed
        if speed is None:
            return end - start
        elapsed = end - start - (speed.spent - spent)
        if elapsed > speed.INTERVAL:
            # The host may have changed speed during a long call: scale it
            # by the probes on both sides.
            speed.poll()
            best = 0.5 * (best + speed.best)
        return elapsed * speed.REFERENCE / best

    def time(self, phase: str, function: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, float]:
        recorder = self._recorder
        if recorder is None:
            mark = self.mark()
            result = function(*args, **kwargs)
            return result, self.since(mark)
        index = recorder.open(self._ids[phase])
        start = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            recorder.close(index)
        return result, elapsed


@dataclass
class Samples:
    """Everything one unit measured, in seconds, in the order it was measured."""

    setup: List[float] = field(default_factory=list)
    request: List[float] = field(default_factory=list)
    ctl: List[float] = field(default_factory=list)
    finalize: List[float] = field(default_factory=list)
    replay: List[float] = field(default_factory=list)
    other: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(message)


#: Per-phase sample arrays of one unit's work (see ``worker.lower_quartile``).
Series = Dict[str, np.ndarray]


# ----------------------------------------------------------------------
# Streamed sessions
# ----------------------------------------------------------------------
class StreamWorkload:
    """``sessions`` ``ScenarioSession``s per unit: ``n`` steps each, then finalize.

    Control op: every ``n // 16`` steps, a batch of ``CTL_BATCH`` status
    reads through the session's public properties (the fields of the
    service ``status`` op), timed as one sample per read.  Replay:
    ``ScenarioSession.restore`` of a snapshot taken after the last step,
    ``replays`` times, each restored session finalized again.
    """

    CTL_BATCH = 256

    def __init__(
        self,
        algorithm: str,
        scenario: Dict[str, Any],
        expected: Tuple[float, int],
        setup_reps: int,
        replays: int,
        sessions: int = 1,
    ) -> None:
        self.algorithm = algorithm
        self.scenario = scenario
        #: (total cost, facilities) on the default seed.
        self.expected = expected
        self.setup_reps = setup_reps
        self.replays = replays
        #: Sessions per unit, each on its own seed, so that one run's
        #: figures do not follow a single instance.
        self.sessions = sessions
        self.runs = sessions

    def spec(self, seed: int) -> Dict[str, Any]:
        return {"algorithm": self.algorithm, "scenario": dict(self.scenario), "seed": seed}

    @classmethod
    def status(cls, session: Any) -> Tuple[Any, ...]:
        """``CTL_BATCH`` status reads; returns the last one."""
        for _ in range(cls.CTL_BATCH):
            inner = session.session
            status = (
                inner.num_requests,
                session.position,
                session.exhausted,
                inner.opening_cost,
                inner.connection_cost,
                inner.total_cost,
                inner.runtime_seconds,
            )
        return status

    def prepare(self, work: Path) -> None:
        from repro.scenarios import ScenarioSession

        ScenarioSession(self.spec(0))

    def run_seconds(self, series: Series) -> float:
        """Complete runs: build each session, serve every step, finalize."""
        last = self.setup_reps + 1
        per_session = 1 + self.replays
        return float(
            series["setup"][last - 1 :: last].sum()
            + series["request"].sum()
            + series["finalize"][::per_session].sum()
        )

    def seeds(self, seed: int) -> List[int]:
        """The run seed, then seeds derived from it: one per session of a unit."""
        return [seed] + child_seeds(seed, self.sessions - 1)

    def unit(self, seed: int, clock: Clock, samples: Samples, work: Path, *, first: bool, reps: bool) -> int:
        for session_seed in self.seeds(seed):
            self._session(session_seed, clock, samples, reps=reps)
        return self.sessions * self.scenario["num_requests"]

    def _session(self, seed: int, clock: Clock, samples: Samples, *, reps: bool) -> None:
        from repro.scenarios import ScenarioSession

        n = self.scenario["num_requests"]
        spec = self.spec(seed)
        for _ in range(self.setup_reps if reps else 0):
            _, seconds = clock.time("setup", ScenarioSession, spec)
            samples.setup.append(seconds)
            samples.attempted += 1
        session, seconds = clock.time("setup", ScenarioSession, spec)
        samples.setup.append(seconds)
        every = n // 16
        event = None
        for index in range(1, n + 1):
            event, seconds = clock.time("request", session.step)
            samples.request.append(seconds)
            if index % every == 0:
                status, seconds = clock.time("ctl", self.status, session)
                samples.ctl.append(seconds / self.CTL_BATCH)
                samples.attempted += self.CTL_BATCH
                samples.check(
                    status[0] == index == status[1],
                    f"seed {seed}: status after {index} steps reads {status}",
                )
        snapshot = session.snapshot()
        record, seconds = clock.time("finalize", session.finalize)
        samples.finalize.append(seconds)
        samples.attempted += n + 2
        for _ in range(self.replays):
            restored, seconds = clock.time("replay", ScenarioSession.restore, snapshot)
            samples.replay.append(seconds)
            samples.check(
                event is not None
                and restored.position == n
                and restored.session.total_cost == event.total_cost_so_far,
                f"seed {seed}: the restored session does not match the last event",
            )
            again, seconds = clock.time("finalize", restored.finalize)
            samples.finalize.append(seconds)
            samples.attempted += 2
            samples.check(
                again.total_cost == record.total_cost,
                f"seed {seed}: the restored session finalized to {again.total_cost}, "
                f"the original to {record.total_cost}",
            )

        samples.check(
            event is not None and event.request_index == n - 1,
            f"seed {seed}: the stream ended before {n} requests",
        )
        samples.check(session.spec.validate, f"seed {seed}: validation was off")
        # finalize() recomputes the cost breakdown from the frozen solution;
        # with several commodities its sum order differs from the running
        # total's, so the two may differ in the last bits.
        samples.check(
            event is not None
            and math.isclose(event.total_cost_so_far, record.total_cost, rel_tol=1e-12),
            f"seed {seed}: last running total {event and event.total_cost_so_far} "
            f"!= RunRecord.total_cost {record.total_cost}",
        )
        if seed == 0:
            samples.check(
                (record.total_cost, record.num_facilities) == self.expected,
                f"default seed: got {(record.total_cost, record.num_facilities)}, "
                f"recorded {self.expected}",
            )


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
class ServiceWorkload:
    """One service round per unit over a fresh ``SessionManager``.

    The client script -- 2048 submits in bursts of 32, ``status`` every 64
    submits and ``metrics`` every 256 -- is generated from the seed before
    the round starts.  The bursts visit the 4 sessions in a seeded order,
    repeated; at most 2 sessions stay live, so every switch forces one LRU
    eviction and one reload, and every seed does the same number of each.
    The round ends with ``shutdown`` (all sessions to disk); the replay phase
    restarts the service over a copy of that directory and sends
    ``finalize`` for every session, ``REPLAYS`` times.
    """

    SESSIONS = 4
    runs = SESSIONS
    SUBMITS = 2048
    BURST = 32
    STATUS_EVERY = 64
    METRICS_EVERY = 256
    MAX_LIVE = 2
    REPLAYS = 3
    POINTS = 256
    COMMODITIES = 8
    WORKLOAD = {
        "kind": "clustered",
        "num_requests": 256,
        "num_commodities": COMMODITIES,
        "num_clusters": 8,
        "points_per_cluster": POINTS // 8,
    }

    def __init__(self, setup_reps: int) -> None:
        self.setup_reps = setup_reps

    def names(self) -> List[str]:
        return [f"s{index}" for index in range(self.SESSIONS)]

    def create_lines(self, seed: int) -> List[str]:
        return [
            json.dumps(
                {
                    "op": "create",
                    "name": name,
                    "spec": {
                        "algorithm": "rand-omflp",
                        "workload": dict(self.WORKLOAD),
                        "seed": session_seed,
                    },
                    "telemetry": True,
                }
            )
            for name, session_seed in zip(self.names(), child_seeds(seed, self.SESSIONS))
        ]

    def script(self, seed: int) -> List[Tuple[str, str, str]]:
        """``(phase, session, line)`` for every line of the round's loop."""
        rng = np.random.default_rng(seed)
        names = self.names()
        visit = rng.permutation(len(names))
        lines: List[Tuple[str, str, str]] = []
        submitted = 0
        for burst in range(self.SUBMITS // self.BURST):
            name = names[int(visit[burst % len(names)])]
            for _ in range(self.BURST):
                size = int(rng.integers(1, 4))
                message = {
                    "op": "submit",
                    "name": name,
                    "point": int(rng.integers(self.POINTS)),
                    "commodities": sorted(
                        int(e) for e in rng.choice(self.COMMODITIES, size, replace=False)
                    ),
                }
                lines.append(("request", name, json.dumps(message)))
                submitted += 1
                if submitted % self.STATUS_EVERY == 0:
                    lines.append(("ctl", name, json.dumps({"op": "status", "name": name})))
                if submitted % self.METRICS_EVERY == 0:
                    lines.append(("ctl", name, json.dumps({"op": "metrics"})))
        return lines

    def _protocol(self, directory: Path) -> Any:
        """A service over ``directory``, holding whatever sessions it holds."""
        from repro.service import ServiceProtocol, SessionManager

        return ServiceProtocol(
            SessionManager(snapshot_dir=directory, max_live_sessions=self.MAX_LIVE)
        )

    def _serve(self, directory: Path, creates: List[str]) -> Tuple[Any, List[str]]:
        protocol = self._protocol(directory)
        return protocol, [protocol.handle_line(line) for line in creates]

    def prepare(self, work: Path) -> None:
        self._serve(work / "warm-up", self.create_lines(0))
        shutil.rmtree(work / "warm-up", ignore_errors=True)

    def run_seconds(self, series: Series) -> float:
        """A complete round: serve, shut down, restart and finalize every session."""
        return float(
            series["setup"][-1]
            + series["request"].sum()
            + series["ctl"].sum()
            + series["other"].sum()
            + series["replay"][0]
        )

    def unit(self, seed: int, clock: Clock, samples: Samples, work: Path, *, first: bool, reps: bool) -> int:
        creates = self.create_lines(seed)
        script = self.script(seed)
        for rep in range(self.setup_reps if reps else 0):
            directory = work / f"setup-{rep}"
            (_, responses), seconds = clock.time("setup", self._serve, directory, creates)
            samples.setup.append(seconds)
            samples.attempted += len(responses)
            self._check_ok(samples, responses)
            shutil.rmtree(directory, ignore_errors=True)

        directory = work / "round"
        (protocol, responses), seconds = clock.time("setup", self._serve, directory, creates)
        samples.setup.append(seconds)
        samples.attempted += len(responses)
        self._check_ok(samples, responses)
        counts = {name: 0 for name in self.names()}
        for phase, name, line in script:
            text, seconds = clock.time(phase, protocol.handle_line, line)
            (samples.request if phase == "request" else samples.ctl).append(seconds)
            samples.attempted += 1
            response = self._check_ok(samples, [text])
            if phase == "request" and response is not None:
                counts[name] += 1
        text, seconds = clock.time("finalize", protocol.handle_line, json.dumps({"op": "shutdown"}))
        samples.other.append(seconds)
        samples.attempted += 1
        self._check_ok(samples, [text])

        replays = []
        for replay in range(self.REPLAYS):
            copy = shutil.copytree(directory, work / f"replay-{replay}")
            mark = clock.mark()
            replays.append(self._replay(copy, clock, samples))
            samples.replay.append(clock.since(mark))
            shutil.rmtree(copy, ignore_errors=True)
        records = replays[0]
        samples.check(
            all(other == records for other in replays),
            f"seed {seed}: replays of one snapshot directory finalized differently",
        )
        for name in self.names():
            record = records.get(name)
            samples.check(
                record is not None and record["num_requests"] == counts[name],
                f"seed {seed}: session {name} finalized after {counts[name]} submits "
                f"as {record and record['num_requests']} requests",
            )
        if first:
            expected = self.uninterrupted(creates, script)
            samples.check(
                {name: record["total_cost"] for name, record in records.items()} == expected,
                f"seed {seed}: evicted sessions finalized to "
                f"{ {name: record['total_cost'] for name, record in records.items()} }, "
                f"never-evicted ones to {expected}",
            )
        shutil.rmtree(directory, ignore_errors=True)
        return self.SUBMITS

    def _replay(self, directory: Path, clock: Clock, samples: Samples) -> Dict[str, Any]:
        """Restart the service over ``directory`` and finalize every session."""
        restarted, _ = clock.time("replay", self._protocol, directory)
        records = {}
        for name in self.names():
            line = json.dumps({"op": "finalize", "name": name})
            text, seconds = clock.time("replay", restarted.handle_line, line)
            samples.finalize.append(seconds)
            samples.attempted += 1
            response = self._check_ok(samples, [text])
            if response is not None:
                records[name] = response["record"]
        return records

    @staticmethod
    def uninterrupted(creates: List[str], script: List[Tuple[str, str, str]]) -> Dict[str, float]:
        """Final total cost of each session when it is never evicted.

        Eviction and reload are bit-identical by contract, so the service's
        records must equal these exactly.  (The running total of the last
        event is not compared: finalize recomputes the cost breakdown, which
        may differ from the running sum in the last bits.)
        """
        from repro.api import OnlineSession
        from repro.service import components_from_spec

        sessions = {}
        for line in creates:
            message = json.loads(line)
            algorithm, instance, generator = components_from_spec(message["spec"])
            sessions[message["name"]] = OnlineSession(
                algorithm,
                instance.metric,
                instance.cost_function,
                commodities=instance.commodities,
                rng=generator,
                telemetry=message["telemetry"],
            )
        for phase, name, line in script:
            if phase == "request":
                message = json.loads(line)
                sessions[name].submit(message["point"], message["commodities"])
        return {name: session.finalize().total_cost for name, session in sessions.items()}

    @staticmethod
    def _check_ok(samples: Samples, texts: List[str]) -> Optional[Dict[str, Any]]:
        """Exactly one ``ok`` JSON response per line; returns the last one."""
        response = None
        for text in texts:
            try:
                response = json.loads(text)
            except json.JSONDecodeError:
                response = None
            if not isinstance(response, dict) or response.get("ok") is not True:
                samples.check(False, f"not ok: {text[:200]}")
                response = None
        return response


# ----------------------------------------------------------------------
# Engine sweep
# ----------------------------------------------------------------------
class EngineWorkload:
    """One serial ``run_plan`` sweep per unit, cold and then warm.

    The plan runs the ``run-spec`` task over 4 algorithms x 15 seeded eager
    clustered workloads into a fresh ``ResultStore`` (cold; a request is
    one task, timed around ``repro.engine.executor.execute_task``), then
    again ``WARM_REPLAYS`` times over the filled store (replay).  Set-up
    builds the plan, the store and the task list, ``SETUP_BLOCK`` times per
    sample.  Control op: ``ResultStore.get`` of a stored task, timed
    ``CTL_BATCH`` reads at a time, for every task.  Finalize:
    turn the cold pass's ``PlanResult`` into the experiment's result table,
    as an engine-backed experiment does.
    """

    ALGORITHMS = ("pd-omflp", "rand-omflp", "per-commodity-fotakis", "greedy")
    #: One seed per instance, all of 300 requests.  The offline ``greedy``
    #: solver is the slowest task and its time varies up to 3x between
    #: instances of one size, so ``req_p99_us`` is about the slowest of 15
    #: such draws: steadier from seed to seed than the one largest instance
    #: of a range of sizes, and so is the sum over 15 instances.
    SIZES = (300,) * 15
    runs = len(ALGORITHMS) * len(SIZES)
    WARM_REPLAYS = 20
    TABLES_PER_PASS = 3
    CTL_BATCH = 16
    SETUP_BLOCK = 20
    WORKLOAD = {"kind": "clustered", "num_commodities": 8}

    def __init__(self, setup_reps: int) -> None:
        self.setup_reps = setup_reps
        #: Time of every ``execute_task`` call, appended by the wrapper, and
        #: of the pass's own work before each call (store writes, keys).
        self.task_seconds: List[float] = []
        self.gap_seconds: List[float] = []
        #: The unit's clock, and a mark at the end of the last task.
        self.clock = Clock()
        self._after = (0.0, 0.0, 0.0)

    def cases(self, seed: int) -> List[Dict[str, Any]]:
        return [
            {
                "spec": {
                    "algorithm": algorithm,
                    "workload": {**self.WORKLOAD, "num_requests": size},
                    "seed": spec_seed,
                }
            }
            for algorithm in self.ALGORITHMS
            for size, spec_seed in zip(self.SIZES, child_seeds(seed, len(self.SIZES)))
        ]

    def _plan(self, seed: int, directory: Path) -> Tuple[Any, Any, List[Any]]:
        from repro.engine import ExperimentPlan, ResultStore

        plan = ExperimentPlan(name="perfbench-sweep", task="run-spec", cases=self.cases(seed), seed=seed)
        return plan, ResultStore(directory), plan.tasks()

    def _plans(self, seed: int, directory: Path) -> None:
        for _ in range(self.SETUP_BLOCK):
            self._plan(seed, directory)

    @classmethod
    def _gets(cls, store: Any, key: str) -> Any:
        """``CTL_BATCH`` reads of one stored task; returns the last one."""
        for _ in range(cls.CTL_BATCH):
            entry = store.get(key)
        return entry

    @staticmethod
    def _table(outcome: Any) -> str:
        from repro.analysis import ExperimentResult

        return ExperimentResult.from_plan_result("perfbench-sweep", "sweep", outcome).to_table()

    def prepare(self, work: Path) -> None:
        """Time every task from outside: ``run_plan`` looks it up by name."""
        import repro.engine.executor as executor

        execute_task = executor.execute_task

        def timed(payload: Any) -> Any:
            clock = self.clock
            self.gap_seconds.append(clock.since(self._after))
            mark = clock.mark()
            result = execute_task(payload)
            self.task_seconds.append(clock.since(mark))
            self._after = clock.mark()
            return result

        executor.execute_task = timed
        self._plan(0, work / "warm-up")

    def run_seconds(self, series: Series) -> float:
        """The cold pass: set-up, every task, and the store writes."""
        return float(series["setup"][-1] + series["request"].sum() + series["other"].sum())

    def unit(self, seed: int, clock: Clock, samples: Samples, work: Path, *, first: bool, reps: bool) -> int:
        from repro.engine import run_plan

        self.clock = clock
        directory = work / "store"
        for _ in range(self.setup_reps if reps else 0):
            _, seconds = clock.time("setup", self._plans, seed, directory)
            samples.setup.append(seconds / self.SETUP_BLOCK)
            samples.attempted += self.SETUP_BLOCK
        (plan, store, tasks), seconds = clock.time("setup", self._plan, seed, directory)
        samples.setup.append(seconds)
        del self.task_seconds[:], self.gap_seconds[:]
        self._after = clock.mark()
        cold, _ = clock.time("request", run_plan, plan, workers=1, store=store)
        samples.request.extend(self.task_seconds)
        samples.other.extend(self.gap_seconds)
        samples.other.append(clock.since(self._after))
        samples.attempted += len(tasks) + 1
        samples.check(
            len(self.task_seconds) == len(tasks),
            f"seed {seed}: timed {len(self.task_seconds)} of {len(tasks)} tasks",
        )
        samples.check(
            cold.computed_count == len(tasks),
            f"seed {seed}: cold pass reused {cold.reused_count} tasks",
        )
        # The short table builds and store reads are spread over the warm
        # passes, so that they meet the host at many moments, not one.
        keys = [task.key() for task in tasks]
        per_pass = -(-len(keys) // self.WARM_REPLAYS)
        for start in range(0, self.WARM_REPLAYS * per_pass, per_pass):
            warm, seconds = clock.time("replay", run_plan, plan, workers=1, store=store)
            samples.replay.append(seconds)
            samples.attempted += 1
            samples.check(
                warm.reused_count == len(tasks) and warm.rows == cold.rows,
                f"seed {seed}: warm rows differ from cold rows",
            )
            for _ in range(self.TABLES_PER_PASS):
                table, seconds = clock.time("finalize", self._table, cold)
                samples.finalize.append(seconds)
                samples.attempted += 1
                samples.check(
                    table.count("\n") >= len(cold.rows),
                    f"seed {seed}: the result table has fewer lines than rows",
                )
            for key in keys[start : start + per_pass]:
                entry, seconds = clock.time("ctl", self._gets, store, key)
                samples.ctl.append(seconds / self.CTL_BATCH)
                samples.attempted += self.CTL_BATCH
                samples.check(entry is not None, f"seed {seed}: stored task {key} is missing")
        shutil.rmtree(directory, ignore_errors=True)
        return len(tasks)


WORKLOADS: Dict[str, Any] = {
    "stream-meyerson": StreamWorkload(
        "meyerson-ofl",
        {"kind": "uniform", "num_commodities": 1, "num_points": 1024, "num_requests": 20000},
        expected=(864.1775890343868, 444),
        setup_reps=40,
        # restore and finalize each walk all 20 000 requests in one call; one
        # sample of each per unit spread 0.19-0.26 over seeds, three 0.07-0.09.
        replays=3,
    ),
    # 8 x 32 points rather than 8 x 128: BidHistoryBuffer.base sums an
    # h x n history, 8 MB at n = 1024 and h = 1000, which sits in the cache
    # other tenants of a shared host also use.  Interleaved runs on such a
    # host spread 0.15-0.48 (IQR/median over seeds) at n = 1024 and at most
    # 0.07 at n = 256 (2 MB), where base is still about 80% of a step.
    "stream-primal-dual": StreamWorkload(
        "pd-omflp",
        {
            "kind": "clustered",
            "num_commodities": 8,
            "num_clusters": 8,
            "points_per_cluster": 32,
            "num_requests": 1000,
        },
        expected=(72.138017227653, 17),
        setup_reps=30,
        replays=4,
        sessions=3,
    ),
    "service-mixed": ServiceWorkload(setup_reps=4),
    "engine-sweep": EngineWorkload(setup_reps=10),
}
