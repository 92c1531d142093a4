"""The execution half of the engine: plans in, ordered results out.

:func:`run_plan` takes an :class:`~repro.engine.plan.ExperimentPlan`, resolves
store hits, scatters the remaining tasks over the process pool of
:mod:`repro.parallel.pool`, persists fresh results, and returns a
:class:`PlanResult` with one :class:`TaskResult` per case **in case order** —
regardless of worker count or scheduling.

Determinism contract (pinned by ``tests/test_engine_equivalence.py``): a task
is a pure function of ``(task function, case dict, child seed)``; the child
seeds come from :func:`repro.utils.rng.spawn_child_seeds` on the plan's root
seed, so ``workers=64`` produces rows ``==`` to ``workers=1`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import EngineTask, ExperimentPlan, TaskRef
from repro.engine.store import ResultStore
from repro.engine.tasks import TASKS
from repro.exceptions import EngineError, UnknownComponentError
from repro.parallel.pool import ParallelConfig, parallel_map
from repro.trace.clock import wall_now
from repro.trace.tracer import Tracer

__all__ = [
    "TaskResult",
    "PlanResult",
    "run_plan",
    "execute_task",
    "execute_task_traced",
]

#: Ring-buffer size of the per-worker shard tracers: a task records a handful
#: of spans, so shards stay small on the wire back to the parent.
_SHARD_BUFFER = 256


@dataclass
class TaskResult:
    """Outcome of one engine task.

    ``rows`` is always a list (single-row task functions are normalized);
    ``reused`` marks results served from the store instead of computed.
    ``telemetry`` is the engine's per-task telemetry row (identity, row
    count, runtime, reuse flag) — persisted into the result store alongside
    the rows and rendered by ``repro report``.
    """

    task: EngineTask
    rows: List[Dict[str, Any]]
    runtime_seconds: float
    reused: bool = False
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def row(self) -> Dict[str, Any]:
        """The single row of a one-row task (raises otherwise)."""
        if len(self.rows) != 1:
            raise EngineError(
                f"task {self.task.task!r} (case {self.task.index}) produced "
                f"{len(self.rows)} rows; .row expects exactly one"
            )
        return self.rows[0]


@dataclass
class PlanResult:
    """All task results of one plan, in case order."""

    plan: ExperimentPlan
    results: List[TaskResult]

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """Every emitted row, flattened in case order."""
        return [row for result in self.results for row in result.rows]

    @property
    def reused_count(self) -> int:
        return sum(1 for result in self.results if result.reused)

    @property
    def computed_count(self) -> int:
        return len(self.results) - self.reused_count

    @property
    def total_task_seconds(self) -> float:
        """Summed per-task runtimes (compute time, not wall-clock)."""
        return sum(result.runtime_seconds for result in self.results)

    def telemetry_rows(self) -> List[Dict[str, Any]]:
        """One engine-telemetry row per task, in case order."""
        return [
            dict(result.telemetry)
            for result in self.results
            if result.telemetry is not None
        ]

    def __len__(self) -> int:
        return len(self.results)


def _task_telemetry(
    task: EngineTask,
    *,
    rows: Sequence[Mapping[str, Any]],
    runtime_seconds: float,
    reused: bool,
) -> Dict[str, Any]:
    """The engine's per-task telemetry row (strict JSON, report-renderable)."""
    return {
        "task": task.task if isinstance(task.task, str) else getattr(task.task, "__name__", "callable"),
        "index": task.index,
        "seed": task.seed,
        "rows": len(rows),
        "runtime_seconds": runtime_seconds,
        "reused": reused,
    }


def _resolve(task: TaskRef):
    if not isinstance(task, str):
        return task
    try:
        return TASKS.get(task)
    except UnknownComponentError:
        # Fork-started workers inherit the parent's registrations, but
        # spawn-started ones (and bare scripts) may not have imported the
        # defining experiment modules yet; the stock tasks all register as a
        # side effect of the experiments registry import, so try that once.
        import repro.experiments.registry  # noqa: F401

        return TASKS.get(task)


def _normalize_rows(task: TaskRef, output: Any) -> List[Dict[str, Any]]:
    if isinstance(output, Mapping):
        rows: Sequence[Any] = [output]
    elif isinstance(output, Sequence) and not isinstance(output, (str, bytes)):
        rows = output
    else:
        raise EngineError(
            f"engine task {task!r} must return a row dict or a list of row "
            f"dicts, got {type(output).__name__}"
        )
    for row in rows:
        if not isinstance(row, Mapping):
            raise EngineError(
                f"engine task {task!r} emitted a non-mapping row: "
                f"{type(row).__name__}"
            )
    return [dict(row) for row in rows]


def execute_task(payload: Tuple[TaskRef, Dict[str, Any], int]) -> Tuple[List[Dict[str, Any]], float]:
    """Run one ``(task, case, seed)`` payload; module-level, so it pickles.

    This is the function the process pool scatters: the payload is plain data
    (plus, for in-process plans, a module-level callable), and the returned
    ``(rows, runtime_seconds)`` tuple is plain data again.
    """
    kind, case, seed = payload
    function = _resolve(kind)
    generator = np.random.default_rng(seed)
    start = wall_now()
    output = function(case, generator)
    elapsed = wall_now() - start
    return _normalize_rows(kind, output), elapsed


def _task_label(kind: TaskRef) -> str:
    return kind if isinstance(kind, str) else getattr(kind, "__name__", "callable")


def execute_task_traced(
    payload: Tuple[TaskRef, Dict[str, Any], int, int]
) -> Tuple[List[Dict[str, Any]], float, List[Dict[str, Any]]]:
    """:func:`execute_task` plus a span shard for traced plans.

    The worker builds its own small :class:`~repro.trace.tracer.Tracer`
    (span ids and event clock start at 0 locally), wraps the task in an
    ``engine.task`` span with ``engine.resolve`` / ``engine.compute``
    children, and ships the spans back as plain dicts — the parent re-bases
    them into the plan trace with
    :meth:`~repro.trace.tracer.Tracer.merge_shard`.  ``runtime_seconds``
    keeps the exact :func:`execute_task` semantics (the compute call only).
    """
    kind, case, seed, index = payload
    tracer = Tracer(buffer_size=_SHARD_BUFFER, detail_stride=1, sample_seed=0)
    task_span = tracer.begin(
        "engine.task",
        category="engine",
        ordinal=index,
        attributes={"task": _task_label(kind), "seed": seed},
    )
    resolve_start = wall_now()
    function = _resolve(kind)
    tracer.add(
        "engine.resolve",
        category="engine",
        ordinal=index,
        seconds=wall_now() - resolve_start,
        wall_start=resolve_start,
    )
    generator = np.random.default_rng(seed)
    start = wall_now()
    output = function(case, generator)
    elapsed = wall_now() - start
    tracer.add(
        "engine.compute",
        category="engine",
        ordinal=index,
        seconds=elapsed,
        wall_start=start,
    )
    rows = _normalize_rows(kind, output)
    tracer.end(task_span, attributes={"rows": len(rows)})
    return rows, elapsed, [span.to_dict() for span in tracer.spans()]


def run_plan(
    plan: ExperimentPlan,
    *,
    workers: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    store: Optional[ResultStore] = None,
    config: Optional[ParallelConfig] = None,
    tracer: Any = None,
) -> PlanResult:
    """Execute every task of ``plan``, reusing stored results where possible.

    Parameters
    ----------
    workers, chunk_size:
        Forwarded to :class:`~repro.parallel.pool.ParallelConfig` (ignored
        when an explicit ``config`` is given).  ``workers=1`` runs serially
        in-process — results are identical either way.
    store:
        Optional :class:`~repro.engine.store.ResultStore`.  Tasks found in
        the store are *not* re-executed; fresh results are persisted after
        the gather.  Requires every task to be name-registered plain data.
    config:
        Full parallel configuration (e.g. to lower
        ``min_items_for_parallel`` in tests that must exercise the pool).
    tracer:
        Opt-in span tracing (:mod:`repro.trace`): the whole plan becomes an
        ``engine.plan`` span, store hits record ``engine.store-hit`` spans,
        and computed tasks run through :func:`execute_task_traced` — each
        worker ships a span shard tagged with the task's content-hash
        prefix, merged here into one cross-process trace.  Results are
        bit-identical with tracing on or off (the trace equivalence grid of
        ``tests/test_trace.py``).
    """
    if tracer is None or tracer is False:
        tracer = None
    else:
        tracer = Tracer.coerce(tracer)
    tasks = plan.tasks()
    plan_span = None
    if tracer is not None:
        plan_span = tracer.begin(
            "engine.plan",
            category="engine",
            attributes={"plan": plan.name, "tasks": len(tasks)},
        )
    results: List[Optional[TaskResult]] = [None] * len(tasks)
    pending: List[EngineTask] = []
    for task in tasks:
        if store is not None:
            if not isinstance(task.task, str):
                raise EngineError(
                    f"plan {plan.name!r} uses a live-callable task; result "
                    "stores need name-registered tasks (see repro.engine.TASKS)"
                )
            lookup_start = wall_now()
            hit = store.get(task.key())
            if hit is not None:
                stored_runtime = float(hit["runtime_seconds"])
                if tracer is not None:
                    tracer.add(
                        "engine.store-hit",
                        category="engine",
                        ordinal=task.index,
                        seconds=wall_now() - lookup_start,
                        wall_start=lookup_start,
                        attributes={
                            "task": _task_label(task.task),
                            "stored_runtime_seconds": stored_runtime,
                        },
                    )
                results[task.index] = TaskResult(
                    task=task,
                    rows=[dict(row) for row in hit["rows"]],
                    runtime_seconds=stored_runtime,
                    reused=True,
                    telemetry=_task_telemetry(
                        task,
                        rows=hit["rows"],
                        runtime_seconds=stored_runtime,
                        reused=True,
                    ),
                )
                continue
        pending.append(task)

    if pending:
        if config is None:
            config = ParallelConfig(workers=workers, chunk_size=chunk_size)
        shards: List[Optional[List[Dict[str, Any]]]]
        if tracer is None:
            outcomes = parallel_map(
                execute_task,
                [(task.task, task.case, task.seed) for task in pending],
                config=config,
            )
            shards = [None] * len(pending)
        else:
            traced_outcomes = parallel_map(
                execute_task_traced,
                [(task.task, task.case, task.seed, task.index) for task in pending],
                config=config,
            )
            outcomes = [(rows, runtime) for rows, runtime, _ in traced_outcomes]
            shards = [shard for _, _, shard in traced_outcomes]
        for task, (rows, runtime), shard in zip(pending, outcomes, shards):
            if tracer is not None and shard:
                # Shards merge in task order — deterministic id/event-clock
                # re-basing regardless of worker count or scheduling.
                tracer.merge_shard(
                    shard,
                    shard=task.short_key(),
                    parent_id=plan_span.span_id if plan_span is not None else None,
                )
            telemetry = _task_telemetry(
                task, rows=rows, runtime_seconds=runtime, reused=False
            )
            results[task.index] = TaskResult(
                task=task, rows=rows, runtime_seconds=runtime, telemetry=telemetry
            )
            if store is not None:
                # Persisted in the parent after the gather: one writer, and
                # the atomic rename makes concurrent stores safe anyway.
                store.put(
                    task.key(),
                    task=task.task,
                    case=task.case,
                    seed=task.seed,
                    rows=rows,
                    runtime_seconds=runtime,
                    plan=plan.name,
                    telemetry=telemetry,
                )

    final = [result for result in results if result is not None]
    if tracer is not None and plan_span is not None:
        tracer.end(
            plan_span,
            attributes={
                "reused": sum(1 for r in final if r.reused),
                "computed": sum(1 for r in final if not r.reused),
            },
        )
    return PlanResult(plan=plan, results=final)
