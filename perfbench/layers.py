"""Layer attribution for the traced benchmark run.

The traced run wraps the public calls of every ``repro.*`` layer from the
outside: :func:`instrument` replaces each listed method, on the layer's base
class and on every subclass that defines its own version, with a wrapper that
records one span (name, start, end, parent, root) in a :class:`SpanRecorder`.
Wrapping every implementing class, not just the base, means a subclass
override added later is still measured.

Spans stay in flat in-memory arrays while the workload runs and are written
to disk once at the end (:meth:`SpanRecorder.save`).  :func:`layer_metrics`
then turns them into the per-layer metrics of ``BENCHMARK.json`` (the README
tables which end-to-end metric each should move):

* a span's *self time* is its duration minus the time its child spans cover;
* counts are taken at the same wrapped boundaries;
* "per request" divides by the number of requests the workload served in its
  request phase (a stream step, a service ``submit`` line, an engine task).

The benchmark itself opens one root span per phase (``bench.setup``,
``bench.request``, ``bench.ctl``, ``bench.finalize``, ``bench.replay``), so
every layer span knows which phase it belongs to.  The workload is a single
thread with one client, so no span ever waits: waiting time is zero by
construction and is not recorded.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Benchmark phases, each recorded as a root span named ``bench.<phase>``.
PHASES = ("setup", "request", "ctl", "finalize", "replay")

#: The public ``SessionManager`` calls; a reload counts when it runs under one.
MANAGER_METHODS = (
    "create", "submit", "advance", "snapshot", "evict", "evict_all",
    "finalize", "close", "status", "metrics",
)


class SpanRecorder:
    """Flat, append-only span storage (one array per field)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        #: Per-span measured quantity (cells, bytes, hit flag); 0 otherwise.
        self.value = array("d")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else index)
        self.value.append(0.0)
        self.end.append(0.0)
        stack.append(index)
        # The clock is read last, so the bookkeeping above is not inside.
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "root": np.frombuffer(self.root, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span to ``path`` (``.npz``: one array per field)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
ValueFn = Callable[[tuple, Any], float]


def _wrap_function(
    recorder: SpanRecorder, function: Callable, span: str, value: Optional[ValueFn]
) -> Callable:
    name_id = recorder.name_id(span)
    open_span, close_span = recorder.open, recorder.close
    values = recorder.value

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = open_span(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            close_span(index)
        if value is not None:
            values[index] = value(args, result)
        return result

    wrapper.__perfbench_span__ = span
    return wrapper


def _wrap_attribute(
    recorder: SpanRecorder, owner: type, attribute: str, span: str, value: Optional[ValueFn]
) -> None:
    """Wrap ``owner.attribute`` in place when ``owner`` defines it itself."""
    raw = owner.__dict__.get(attribute)
    if raw is None:
        return
    if isinstance(raw, (classmethod, staticmethod)):
        function = raw.__func__
        if hasattr(function, "__perfbench_span__"):
            return
        setattr(owner, attribute, type(raw)(_wrap_function(recorder, function, span, value)))
        return
    if not inspect.isfunction(raw) or hasattr(raw, "__perfbench_span__"):
        return
    setattr(owner, attribute, _wrap_function(recorder, raw, span, value))


def _subclasses(base: type) -> List[type]:
    seen: List[type] = [base]
    index = 0
    while index < len(seen):
        for child in seen[index].__subclasses__():
            if child not in seen:
                seen.append(child)
        index += 1
    return seen


def _bid_cells(args: tuple, result: Any) -> float:
    # BidHistoryBuffer.base(): h entries times n points, an exact count.
    return float(len(args[0]) * result.shape[0])


def _hit(args: tuple, result: Any) -> float:
    return 1.0 if result is not None else 0.0


def _file_bytes(args: tuple, result: Any) -> float:
    return float(Path(result).stat().st_size)


def _layer_table() -> List[Tuple[type, str, Iterable[str], Dict[str, ValueFn]]]:
    """``(base class, span prefix, methods, value functions)`` per layer."""
    from repro.accel import BidHistoryBuffer, NearestSetTracker
    from repro.algorithms.base import OfflineSolver, OnlineAlgorithm
    from repro.api.session import OnlineSession
    from repro.core.solution import Solution
    from repro.core.state import OnlineState
    from repro.engine import ResultStore
    from repro.metric.base import MetricSpace
    from repro.scenarios.base import ScenarioStream
    from repro.service import ServiceProtocol, SessionManager, SessionSnapshot
    from repro.telemetry import TelemetrySink

    return [
        (ScenarioStream, "scenarios", ("take", "observe"), {}),
        (OnlineSession, "session", ("submit", "finalize", "snapshot", "restore"), {}),
        (Solution, "solution", ("validate", "cost_breakdown"), {}),
        (OnlineAlgorithm, "algorithms", ("process",), {}),
        (
            OnlineState,
            "state",
            (
                "record_assignment",
                "assign_to_single_facility",
                "open_facility",
                "open_large_facility",
                "distance_to_nearest",
                "distance_to_nearest_large",
                "nearest_offering",
                "nearest_large",
            ),
            {},
        ),
        (MetricSpace, "metric", ("distance", "distances_from", "distances_to"), {}),
        (BidHistoryBuffer, "accel.bid", ("base",), {"base": _bid_cells}),
        (NearestSetTracker, "accel.tracker", ("add",), {}),
        (TelemetrySink, "telemetry", ("record_batch",), {}),
        (ServiceProtocol, "service.protocol", ("handle_line",), {}),
        (SessionManager, "service.manager", MANAGER_METHODS, {}),
        (SessionSnapshot, "service.snapshot", ("load", "save"), {"save": _file_bytes}),
        (ResultStore, "engine.store", ("get", "put"), {"get": _hit}),
        (OfflineSolver, "offline", ("solve",), {}),
    ]


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer's public calls so they record spans into ``recorder``.

    Call after the workload's modules are imported: the subclass walk sees the
    classes that exist at that point.
    """
    for base, prefix, methods, values in _layer_table():
        for owner in _subclasses(base):
            for method in methods:
                _wrap_attribute(recorder, owner, method, f"{prefix}.{method}", values.get(method))
    # Module-level entry points, looked up by name at call time.
    import repro.engine.executor as executor
    from repro.api.components import WORKLOADS

    executor.execute_task = _wrap_function(
        recorder, executor.execute_task, "engine.execute_task", None
    )
    WORKLOADS.build = _wrap_function(recorder, WORKLOADS.build, "workloads.build", None)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Per-layer metrics that are exact counts, so repeat exactly for one seed.
COUNT_METRICS = (
    "metric.distance_calls_per_req",
    "metric.row_calls_per_req",
    "accel.bid_cells_per_req",
    "algorithms.open_ratio",
    "service.evictions",
    "service.reloads",
    "engine.store_hit_ratio",
)


class _Spans:
    """Vectorized views over a recorder's spans for metric derivation."""

    def __init__(self, recorder: SpanRecorder) -> None:
        data = recorder.arrays()
        self.names = recorder.names
        self.name = data["name"]
        self.parent = data["parent"]
        self.root = data["root"]
        self.value = data["value"]
        self.duration = data["end"] - data["start"]
        covered = np.zeros(len(self.name))
        children = self.parent >= 0
        np.add.at(covered, self.parent[children], self.duration[children])
        self.self_time = self.duration - covered
        #: Index into PHASES of each span's root, -1 outside every phase.
        self.phase = np.full(len(self.name), -1, dtype=np.int8)
        root_names = self.name[self.root]
        for code, phase in enumerate(PHASES):
            if f"bench.{phase}" in self.names:
                self.phase[root_names == self.names.index(f"bench.{phase}")] = code

    def mask(self, *spans: str, phase: Optional[str] = None) -> np.ndarray:
        ids = [self.names.index(span) for span in spans if span in self.names]
        selected = np.isin(self.name, ids)
        if phase is not None:
            selected &= self.phase == PHASES.index(phase)
        return selected

    def under(self, selected: np.ndarray, *ancestors: str) -> np.ndarray:
        """Restrict ``selected`` to spans with an ancestor named in ``ancestors``."""
        ids = {self.names.index(span) for span in ancestors if span in self.names}
        result = np.zeros_like(selected)
        for index in np.flatnonzero(selected):
            parent = self.parent[index]
            while parent >= 0:
                if self.name[parent] in ids:
                    result[index] = True
                    break
                parent = self.parent[parent]
        return result

    def mean(self, selected: np.ndarray, field: np.ndarray) -> float:
        count = int(selected.sum())
        return float(field[selected].sum() / count) if count else 0.0


_MANAGER = tuple(f"service.manager.{method}" for method in MANAGER_METHODS)


def layer_metrics(recorder: SpanRecorder, requests: int) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio`` (needs two runs)."""
    spans = _Spans(recorder)
    per_req = 1.0 / max(requests, 1)

    def self_us(*names: str) -> float:
        return float(spans.self_time[spans.mask(*names, phase="request")].sum()) * per_req * 1e6

    def calls(*names: str) -> float:
        return float(spans.mask(*names, phase="request").sum()) * per_req

    def mean_duration(scale: float, *names: str) -> float:
        return spans.mean(spans.mask(*names), spans.duration) * scale

    finalizes = spans.mask("session.finalize")
    per_finalize = 1.0 / max(int(finalizes.sum()), 1)
    in_finalize = {
        part: float(
            spans.duration[spans.under(spans.mask(f"solution.{part}"), "session.finalize")].sum()
        )
        * per_finalize
        for part in ("validate", "cost_breakdown")
    }
    restores = spans.under(spans.mask("session.restore"), *_MANAGER)
    loads = spans.under(spans.mask("service.snapshot.load"), *_MANAGER)
    reload_total = float(spans.duration[restores].sum() + spans.duration[loads].sum())
    processes = calls("algorithms.process")
    gets = spans.mask("engine.store.get")
    handle = spans.mask("service.protocol.handle_line")
    request_roots = spans.mask("bench.request")
    loop_seconds = float(spans.duration[request_roots].sum())

    return {
        "scenarios.draw_us": self_us("scenarios.take"),
        "scenarios.observe_us": self_us("scenarios.observe"),
        "session.submit_self_us": self_us("session.submit"),
        "session.finalize_validate_s": in_finalize["validate"],
        "session.finalize_breakdown_s": in_finalize["cost_breakdown"],
        "algorithms.process_self_us": self_us("algorithms.process"),
        "algorithms.open_ratio": (
            calls("state.open_facility") / processes if processes else 0.0
        ),
        "state.record_us": self_us("state.record_assignment", "state.assign_to_single_facility"),
        "state.open_us": self_us("state.open_facility", "state.open_large_facility"),
        "state.nearest_calls_per_req": calls(
            "state.distance_to_nearest",
            "state.distance_to_nearest_large",
            "state.nearest_offering",
            "state.nearest_large",
        ),
        "metric.us_per_req": self_us(
            "metric.distance", "metric.distances_from", "metric.distances_to"
        ),
        "metric.distance_calls_per_req": calls("metric.distance"),
        "metric.row_calls_per_req": calls("metric.distances_from", "metric.distances_to"),
        "accel.bid_base_us": self_us("accel.bid.base"),
        "accel.bid_cells_per_req": float(
            spans.value[spans.mask("accel.bid.base", phase="request")].sum()
        )
        * per_req,
        "accel.tracker_update_us": self_us("accel.tracker.add"),
        "telemetry.record_batch_us": self_us("telemetry.record_batch"),
        "service.protocol_self_us": spans.mean(handle, spans.self_time) * 1e6,
        "service.status_us": mean_duration(1e6, "service.manager.status"),
        "service.evict_ms": mean_duration(1e3, "service.manager.evict"),
        "service.reload_ms": reload_total / max(int(restores.sum()), 1) * 1e3,
        "service.snapshot_bytes": spans.mean(spans.mask("service.snapshot.save"), spans.value),
        "service.evictions": float(spans.mask("service.manager.evict").sum()),
        "service.reloads": float(restores.sum()),
        "workloads.generate_ms": mean_duration(1e3, "workloads.build"),
        "engine.task_compute_s": mean_duration(1.0, "engine.execute_task"),
        "offline.solve_s": mean_duration(1.0, "offline.solve"),
        "engine.store_get_us": mean_duration(1e6, "engine.store.get"),
        "engine.store_put_ms": mean_duration(1e3, "engine.store.put"),
        "engine.store_hit_ratio": spans.mean(gets, spans.value),
        "trace.req_us": loop_seconds * per_req * 1e6,
        "trace.residual_share": (
            float(spans.self_time[request_roots].sum()) / loop_seconds if loop_seconds else 0.0
        ),
    }
