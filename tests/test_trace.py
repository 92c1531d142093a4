"""The span tracer: determinism, passivity, bounded memory, export, CLI.

Pins the contracts of :mod:`repro.trace`:

* **passivity** — a traced run's events, costs and final RNG state are
  exactly ``==`` an untraced run's, over the algorithm × scenario × seed
  grid (tracing observes; it never steers);
* **determinism** — span ids, parent links, event-clock ticks, ordinals and
  attributes are a pure function of seed + spec: the wall-clock-free payload
  and the event-clock Chrome export are byte-identical across same-seed
  runs;
* **bounded memory** — the ring buffer caps retained spans (dropping the
  oldest, counted), while the phase aggregates still fold every recorded
  observation;
* **structure** — retained spans form a well-nested tree with a monotone
  event clock, and cross-process engine shards re-base into the parent
  trace deterministically.

Plus the Chrome trace-event export/validation surface and the ``repro
trace`` record/export/summarize CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios.run import ScenarioSession
from repro.trace.export import (
    chrome_trace,
    render_summary,
    summarize_trace,
    validate_chrome_trace,
)
from repro.trace.span import Span
from repro.trace.tracer import TraceError, Tracer, validate_payload
from repro.utils.rng import ensure_rng, rng_state

# The equivalence harness already curates the algorithm/instance grid; the
# trace passivity contract is pinned over the same one (tests share a
# directory, so the sibling module imports under pytest's rootdir insertion).
from test_accel_equivalence import ALGORITHMS, SCENARIOS

SEEDS = [0, 1]


# Module-level and name-registered, so it pickles across the process pool
# and survives result-store round-trips.
from repro.engine import engine_task  # noqa: E402


@engine_task("test-trace/draw")
def _draw_task(case, rng):
    return {"case_id": case["case_id"], "draw": float(rng.random())}

PASSIVITY_CASES = [
    pytest.param(algorithm, scenario, seed, id=f"{algorithm}-{scenario}-s{seed}")
    for algorithm, (_, single_only) in ALGORITHMS.items()
    for scenario, num_commodities, _ in SCENARIOS
    if not (single_only and num_commodities != 1)
    for seed in SEEDS
]

SCENARIO_SPEC = {
    "algorithm": "meyerson-ofl",
    "scenario": {
        "kind": "uniform",
        "num_commodities": 1,
        "num_points": 64,
        "max_demand": 1,
    },
    "seed": 0,
}


def _traced_scenario_run(n: int = 40, **tracer_kwargs) -> Tracer:
    tracer = Tracer(**{"detail_stride": 1, **tracer_kwargs})
    session = ScenarioSession(SCENARIO_SPEC, tracer=tracer)
    session.advance(n)
    session.finalize()
    return tracer


# ---------------------------------------------------------------------------
# Construction, coercion, misuse
# ---------------------------------------------------------------------------
def test_tracer_coercion_and_validation():
    assert Tracer.coerce(None) is None
    assert Tracer.coerce(False) is None
    fresh = Tracer.coerce(True)
    assert isinstance(fresh, Tracer)
    live = Tracer(buffer_size=8)
    assert Tracer.coerce(live) is live
    with pytest.raises(TraceError, match="cannot coerce"):
        Tracer.coerce("yes")
    with pytest.raises(TraceError, match="buffer_size"):
        Tracer(buffer_size=0)
    with pytest.raises(TraceError, match="detail_stride"):
        Tracer(detail_stride=0)


def test_end_must_match_innermost_open_span():
    tracer = Tracer()
    outer = tracer.begin("outer", category="session")
    tracer.begin("inner", category="session")
    with pytest.raises(TraceError, match="innermost"):
        tracer.end(outer)


def test_validate_payload_rejects_malformed_envelopes():
    good = Tracer().to_payload()
    assert validate_payload(json.loads(json.dumps(good)))["format"] == "repro.trace"
    with pytest.raises(TraceError, match="not a repro trace payload"):
        validate_payload({"format": "something-else"})
    with pytest.raises(TraceError, match="version"):
        validate_payload(dict(good, version=99))
    with pytest.raises(TraceError, match="spans"):
        validate_payload(dict(good, spans="nope"))


# ---------------------------------------------------------------------------
# Deterministic stratified sampling
# ---------------------------------------------------------------------------
def test_should_detail_selects_one_index_per_stratum():
    stride, strata = 16, 12
    tracer = Tracer(detail_stride=stride, sample_seed=3)
    chosen = [
        index
        for index in range(stride * strata)
        if tracer.should_detail(index)
    ]
    assert len(chosen) == strata
    for rank, index in enumerate(chosen):
        assert rank * stride <= index < (rank + 1) * stride

    # Pure function of the configuration: a fresh tracer agrees exactly,
    # including on repeated (memoized) queries of the same index.
    clone = Tracer(detail_stride=stride, sample_seed=3)
    for index in range(stride * strata):
        first = clone.should_detail(index)
        assert first == (index in chosen)
        assert clone.should_detail(index) == first

    # A different sample seed picks a different sample (not the same offsets
    # in every one of 12 strata).
    other = Tracer(detail_stride=stride, sample_seed=4)
    assert [i for i in range(stride * strata) if other.should_detail(i)] != chosen

    # stride 1 details everything.
    assert all(Tracer(detail_stride=1).should_detail(i) for i in range(8))


# ---------------------------------------------------------------------------
# Aggregates and the bounded ring buffer
# ---------------------------------------------------------------------------
def test_record_phase_folds_every_observation_through_the_batch_buffer():
    tracer = Tracer()
    for i in range(700):  # crosses the internal flush threshold mid-way
        tracer.record_phase("phase.a", 0.001 * (i + 1))
        if i % 2 == 0:
            tracer.record_phase("phase.b", 0.5)
    summary = tracer.phase_summary()
    assert summary["phase.a"]["count"] == 700
    assert summary["phase.a"]["min_seconds"] == pytest.approx(0.001)
    assert summary["phase.a"]["max_seconds"] == pytest.approx(0.7)
    assert summary["phase.a"]["total_seconds"] == pytest.approx(0.001 * 700 * 701 / 2)
    assert summary["phase.b"]["count"] == 350
    # record_phase never creates spans or ticks the event clock.
    assert len(tracer) == 0
    assert tracer.event_clock == 0
    # to_payload drains the same buffer (counts agree after a partial batch).
    tracer.record_phase("phase.a", 1.0)
    assert tracer.to_payload()["phases"]["phase.a"]["count"] == 701


def test_ring_buffer_caps_retention_but_not_aggregation():
    tracer = Tracer(buffer_size=8, detail_stride=1)
    for i in range(30):
        tracer.add("session.submit", category="session", ordinal=i, seconds=0.001)
    assert len(tracer) == 8
    assert tracer.dropped_spans == 22
    # The buffer keeps the newest spans; the aggregates saw all 30.
    assert [span.ordinal for span in tracer.spans()] == list(range(22, 30))
    assert tracer.phase_summary()["session.submit"]["count"] == 30
    meta = tracer.to_payload()["meta"]
    assert meta["spans_retained"] == 8 and meta["dropped_spans"] == 22


# ---------------------------------------------------------------------------
# Passivity: tracing on == tracing off, exactly
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm,scenario,seed", PASSIVITY_CASES)
def test_tracing_is_exactly_passive(algorithm, scenario, seed):
    """Traced vs untraced sessions: identical events, costs and RNG states.

    ``detail_stride=1`` exercises the full span path (begin/end plus every
    sub-phase) on *every* request — the worst case for interference.
    """
    from repro.api.session import OnlineSession

    builder = next(b for name, _, b in SCENARIOS if name == scenario)
    instance = builder(seed)
    factory, _ = ALGORITHMS[algorithm]

    def build(tracer):
        return OnlineSession(
            factory(),
            instance.metric,
            instance.cost_function,
            commodities=instance.commodities,
            rng=ensure_rng(seed),
            tracer=tracer,
        )

    plain = build(None)
    traced = build(Tracer(detail_stride=1))
    for request in instance.requests:
        event_plain = plain.submit(request.point, request.commodities)
        event_traced = traced.submit(request.point, request.commodities)
        assert event_traced == event_plain
    assert rng_state(traced._rng) == rng_state(plain._rng)
    record_plain, record_traced = plain.finalize(), traced.finalize()
    assert record_traced.total_cost == record_plain.total_cost
    assert record_traced.opening_cost == record_plain.opening_cost
    assert record_traced.connection_cost == record_plain.connection_cost
    # The tracer did observe the stream it left untouched.
    tracer = traced.tracer
    assert tracer.phase_summary()["algorithm.process"]["count"] == len(
        instance.requests
    )
    assert any(span.name == "session.submit" for span in tracer.spans())


def test_scenario_session_traced_equals_untraced():
    plain = ScenarioSession(SCENARIO_SPEC)
    traced = ScenarioSession(SCENARIO_SPEC, tracer=Tracer(detail_stride=1))
    events_plain = plain.advance(48)
    events_traced = traced.advance(48)
    assert events_traced == events_plain
    assert traced.finalize().total_cost == plain.finalize().total_cost


# ---------------------------------------------------------------------------
# Span-tree structure
# ---------------------------------------------------------------------------
def test_span_tree_is_well_formed():
    tracer = _traced_scenario_run(40)
    spans = tracer.spans()
    assert spans and tracer.open_spans == 0

    by_id = {span.span_id: span for span in spans}
    assert len(by_id) == len(spans)  # unique ids
    # Spans are retained in finish order: event_end is strictly monotone.
    ends = [span.event_end for span in spans]
    assert ends == sorted(ends) and len(set(ends)) == len(ends)
    for span in spans:
        assert 0 <= span.event_start < span.event_end <= tracer.event_clock
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            # Children nest strictly inside their parent on the event clock.
            assert parent.event_start < span.event_start
            assert span.event_end <= parent.event_end

    # The session taxonomy is present and correlated by request ordinal.
    names = {span.name for span in spans}
    assert {
        "session.submit",
        "session.validate",
        "algorithm.process",
        "session.event",
        "scenario.draw",
        "scenario.observe",
    } <= names
    submits = [span for span in spans if span.name == "session.submit"]
    for submit in submits:
        children = [span for span in spans if span.parent_id == submit.span_id]
        assert {child.name for child in children} == {
            "session.validate",
            "algorithm.process",
            "session.event",
        }
        assert all(child.ordinal == submit.ordinal for child in children)


# ---------------------------------------------------------------------------
# Determinism: byte-identical wall-free payloads and event-clock exports
# ---------------------------------------------------------------------------
def test_same_seed_runs_export_byte_identically():
    first = _traced_scenario_run(40)
    second = _traced_scenario_run(40)

    payload_first = first.to_payload(include_wall=False)
    payload_second = second.to_payload(include_wall=False)
    assert json.dumps(payload_first, sort_keys=True) == json.dumps(
        payload_second, sort_keys=True
    )
    # No wall-clock field survives anywhere in the deterministic form.
    text = json.dumps(payload_first)
    assert "wall_start" not in text and "wall_duration" not in text
    assert "total_seconds" not in text

    chrome_first = chrome_trace(first.to_payload(), clock="event")
    chrome_second = chrome_trace(second.to_payload(), clock="event")
    assert json.dumps(chrome_first, sort_keys=True) == json.dumps(
        chrome_second, sort_keys=True
    )
    assert validate_chrome_trace(chrome_first) == len(chrome_first["traceEvents"])


def test_chrome_export_wall_clock_and_validation_errors():
    tracer = _traced_scenario_run(24)
    chrome = chrome_trace(tracer.to_payload(), clock="wall")
    count = validate_chrome_trace(chrome)
    assert count == len(chrome["traceEvents"])
    names = {event["name"] for event in chrome["traceEvents"]}
    assert {"process_name", "thread_name", "session.submit"} <= names
    complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert complete and all(e["dur"] >= 0.0 for e in complete)

    with pytest.raises(TraceError, match="clock"):
        chrome_trace(tracer.to_payload(), clock="cpu")
    with pytest.raises(TraceError, match="traceEvents"):
        validate_chrome_trace({"events": []})
    with pytest.raises(TraceError, match="missing 'ts'"):
        validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 0}]}
        )


# ---------------------------------------------------------------------------
# Cross-process shard merge (engine)
# ---------------------------------------------------------------------------
def test_merge_shard_rebases_ids_clock_and_parents():
    def shard_payload():
        worker = Tracer(detail_stride=1)
        task = worker.begin("engine.task", category="engine", ordinal=7)
        worker.add("engine.compute", category="engine", ordinal=7, seconds=0.25)
        worker.end(task)
        return [span.to_dict() for span in worker.spans()]

    parent = Tracer()
    root = parent.begin("engine.plan", category="engine")
    merged = parent.merge_shard(shard_payload(), shard="abc123", parent_id=root.span_id)
    parent.end(root)

    assert all(span.shard == "abc123" for span in merged)
    task = next(span for span in merged if span.name == "engine.task")
    compute = next(span for span in merged if span.name == "engine.compute")
    assert task.parent_id == root.span_id  # worker root re-parented
    assert compute.parent_id == task.span_id  # intra-shard links preserved
    assert root.event_start < task.event_start < task.event_end <= root.event_end
    assert parent.phase_summary()["engine.compute"]["total_seconds"] == pytest.approx(
        0.25
    )

    # Determinism: merging the same shard into a fresh parent reproduces the
    # wall-free span set byte-for-byte.
    def merged_payload():
        tracer = Tracer()
        plan = tracer.begin("engine.plan", category="engine")
        tracer.merge_shard(shard_payload(), shard="abc123", parent_id=plan.span_id)
        tracer.end(plan)
        return json.dumps(tracer.to_payload(include_wall=False), sort_keys=True)

    assert merged_payload() == merged_payload()


def test_run_plan_tracing_spans_workers_and_stays_passive(tmp_path):
    from repro.engine import ExperimentPlan, run_plan
    from repro.parallel.pool import ParallelConfig

    cases = [{"case_id": i, "base": i} for i in range(6)]
    plan = ExperimentPlan("traced-plan", "test-trace/draw", cases, seed=11)
    config = ParallelConfig(workers=2, min_items_for_parallel=1)

    baseline = run_plan(plan, workers=1)
    tracer = Tracer(detail_stride=1)
    traced = run_plan(plan, config=config, tracer=tracer)
    assert [r.rows for r in traced.results] == [r.rows for r in baseline.results]

    spans = tracer.spans()
    plan_span = next(span for span in spans if span.name == "engine.plan")
    assert plan_span.attributes["tasks"] == 6
    task_spans = [span for span in spans if span.name == "engine.task"]
    assert len(task_spans) == 6
    assert sorted(span.ordinal for span in task_spans) == list(range(6))
    for span in task_spans:
        assert span.parent_id == plan_span.span_id
        assert span.shard is not None  # tagged with the task content hash
    # Shards merged in task order: worker span ordering is deterministic.
    assert [span.ordinal for span in task_spans] == list(range(6))
    assert tracer.phase_summary()["engine.compute"]["count"] == 6

    # Store hits show up as engine.store-hit spans instead of worker shards.
    store_dir = tmp_path / "store"
    from repro.engine import ResultStore

    store = ResultStore(store_dir)
    run_plan(plan, workers=1, store=store)
    rerun_tracer = Tracer()
    rerun = run_plan(plan, workers=1, store=store, tracer=rerun_tracer)
    assert rerun.reused_count == 6
    hits = [span for span in rerun_tracer.spans() if span.name == "engine.store-hit"]
    assert len(hits) == 6


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def test_summarize_trace_self_time_and_slowest():
    tracer = Tracer(detail_stride=1)
    with tracer.span("outer", category="session"):
        tracer.add("inner", category="session", seconds=0.0)
    summary = summarize_trace(tracer.to_payload(), top=5)
    outer = summary["self_time"]["outer"]
    inner_duration = next(
        span.wall_duration for span in tracer.spans() if span.name == "inner"
    )
    outer_duration = next(
        span.wall_duration for span in tracer.spans() if span.name == "outer"
    )
    assert outer["self_seconds"] == pytest.approx(outer_duration - inner_duration)
    assert [s["name"] for s in summary["slowest_spans"]][0] == "outer"
    rendered = render_summary(summary)
    assert "phase aggregates" in rendered and "self time" in rendered


# ---------------------------------------------------------------------------
# The ``repro trace`` CLI: record → export → summarize
# ---------------------------------------------------------------------------
def test_trace_cli_record_export_summarize_roundtrip(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SCENARIO_SPEC))
    trace_path = tmp_path / "trace.json"
    assert (
        main(
            [
                "trace",
                "record",
                "--spec",
                str(spec_path),
                "--out",
                str(trace_path),
                "--max-requests",
                "32",
                "--stride",
                "1",
            ]
        )
        == 0
    )
    payload = validate_payload(json.loads(trace_path.read_text()))
    assert payload["meta"]["spans_retained"] > 0

    chrome_path = tmp_path / "chrome.json"
    assert (
        main(
            [
                "trace",
                "export",
                str(trace_path),
                "--out",
                str(chrome_path),
                "--clock",
                "event",
            ]
        )
        == 0
    )
    chrome = json.loads(chrome_path.read_text())
    assert validate_chrome_trace(chrome) > 0

    assert main(["trace", "summarize", str(trace_path), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "phase aggregates" in out and "slowest retained spans" in out

    # Deterministic event-clock exports are byte-stable across re-records.
    trace_path_2 = tmp_path / "trace2.json"
    chrome_path_2 = tmp_path / "chrome2.json"
    main(
        [
            "trace",
            "record",
            "--spec",
            str(spec_path),
            "--out",
            str(trace_path_2),
            "--max-requests",
            "32",
            "--stride",
            "1",
        ]
    )
    main(
        [
            "trace",
            "export",
            str(trace_path_2),
            "--out",
            str(chrome_path_2),
            "--clock",
            "event",
        ]
    )
    assert chrome_path_2.read_bytes() == chrome_path.read_bytes()


def test_span_round_trips_with_and_without_wall_fields():
    span = Span(
        span_id=3,
        parent_id=1,
        name="session.submit",
        category="session",
        ordinal=9,
        event_start=4,
        event_end=11,
        attributes={"point": 2},
        wall_start=1.5,
        wall_duration=0.25,
        shard="ab12",
    )
    assert Span.from_dict(span.to_dict()) == span
    stripped = Span.from_dict(span.to_dict(include_wall=False))
    assert stripped.wall_start == 0.0 and stripped.wall_duration == 0.0
    assert stripped.to_dict(include_wall=False) == span.to_dict(include_wall=False)
