"""The telemetry subsystem: probes, sink, zero-cost contract, durability, report.

Pins the three contracts of :mod:`repro.telemetry`:

* **registry/spec discipline** — probes are string-keyed registry citizens
  with declarative specs and strict-JSON state dicts that round-trip exactly;
* **zero cost** — enabling telemetry changes *nothing* about a run: every
  event, every cost and the final RNG state are exactly ``==`` with and
  without probes attached, over the full algorithm × scenario × seed grid;
* **durability** — a snapshot carries the sink bit-identically, a resumed
  session continues its metrics where they left off (also from a snapshot
  written while the stock catalog still had a wall-clock ``latency`` probe,
  whose entry is dropped on load), and the rolling competitive-ratio
  estimate at finalize exactly matches the post-hoc batch computation.

Plus the ``repro report`` renderer: golden-file markdown, HTML smoke checks,
and the baseline regression gate in both its passing and failing modes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.competitive import IncrementalOfflineBound, streaming_lower_bound
from repro.api.session import OnlineSession
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.engine.store import ResultStore
from repro.exceptions import ReproError, TelemetryError, UnknownComponentError
from repro.scenarios import EXAMPLE_SPECS
from repro.scenarios.run import ScenarioSession
from repro.telemetry import (
    DEFAULT_PROBES,
    METRICS_PROBES,
    CompetitiveRatioProbe,
    TelemetrySink,
    render_report,
)
from repro.utils.rng import ensure_rng, rng_state

# The equivalence harness already curates the algorithm/instance grid; the
# zero-cost contract is pinned over the same one (tests share a directory, so
# the sibling module imports directly under pytest's rootdir insertion).
from test_accel_equivalence import ALGORITHMS, SCENARIOS

SEEDS = [0, 1, 2]

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

STOCK_PROBES = ["competitive-ratio", "cost-decomposition", "opening-rate"]

ZERO_COST_CASES = [
    pytest.param(algorithm, scenario, seed, id=f"{algorithm}-{scenario}-s{seed}")
    for algorithm, (_, single_only) in ALGORITHMS.items()
    for scenario, num_commodities, _ in SCENARIOS
    if not (single_only and num_commodities != 1)
    for seed in SEEDS
]


def _scenario_instance(name: str, seed: int) -> Instance:
    builder = next(b for scenario, _, b in SCENARIOS if scenario == name)
    return builder(seed)


def _session(instance: Instance, algorithm: str, seed: int, telemetry) -> OnlineSession:
    factory, _ = ALGORITHMS[algorithm]
    return OnlineSession(
        factory(),
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=ensure_rng(seed),
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Probe registry contracts
# ---------------------------------------------------------------------------
def test_probe_registry_catalog_and_specs():
    """Every stock probe is a registry citizen with a rebuildable spec."""
    assert sorted(METRICS_PROBES.names()) == STOCK_PROBES
    assert set(DEFAULT_PROBES) == set(METRICS_PROBES.names())
    for kind in METRICS_PROBES.names():
        probe = METRICS_PROBES.build(kind)
        assert probe.kind == kind
        spec = probe.spec()
        assert spec["kind"] == kind
        # The spec is strict JSON and rebuilds an identically-configured probe.
        rebuilt = TelemetrySink([json.loads(json.dumps(spec))]).probes[0]
        assert rebuilt.spec() == spec


def test_probe_registry_rejects_typos_with_suggestions():
    with pytest.raises(UnknownComponentError, match="did you mean 'opening-rate'"):
        METRICS_PROBES.build("opening-rte")
    with pytest.raises(ReproError, match="did you mean 'anchor_cap'"):
        METRICS_PROBES.build("competitive-ratio", anchor_cp=16)


@pytest.mark.parametrize("telemetry", [["latency"], [{"kind": "latency", "capacity": 4}]])
def test_the_deleted_latency_probe_is_an_unknown_kind(telemetry):
    """Wall-clock latency is the span tracer's; asking telemetry for it
    fails like any unknown probe, naming the registered ones."""
    with pytest.raises(
        UnknownComponentError,
        match="^unknown metrics probe 'latency'; registered: "
        "cost-decomposition, opening-rate, competitive-ratio$",
    ):
        TelemetrySink(telemetry)


def test_fresh_probe_state_round_trips_through_json():
    """state_dict/load_state_dict are exact inverses, via real JSON text."""
    for kind in METRICS_PROBES.names():
        probe = METRICS_PROBES.build(kind)
        state = json.loads(json.dumps(probe.state_dict()))
        clone = METRICS_PROBES.build(kind)
        clone.load_state_dict(state)
        assert clone.state_dict() == probe.state_dict()
        assert clone.summary() == probe.summary()


def test_probe_state_dict_validation():
    probe = METRICS_PROBES.build("opening-rate")
    good = probe.state_dict()
    with pytest.raises(TelemetryError, match="format"):
        probe.load_state_dict(dict(good, format="something-else"))
    with pytest.raises(TelemetryError, match="version"):
        probe.load_state_dict(dict(good, version=99))
    with pytest.raises(TelemetryError, match="kind"):
        METRICS_PROBES.build("cost-decomposition").load_state_dict(good)


def test_sink_coercion_and_misuse_guards():
    assert TelemetrySink.coerce(None) is None
    assert TelemetrySink.coerce(False) is None
    stock = TelemetrySink.coerce(True)
    assert stock.kinds == list(DEFAULT_PROBES)
    assert TelemetrySink.coerce(stock) is stock
    assert TelemetrySink.coerce(["opening-rate"]).kinds == ["opening-rate"]

    with pytest.raises(TelemetryError, match="duplicate probe kind"):
        TelemetrySink(["competitive-ratio", {"kind": "competitive-ratio", "anchor_cap": 8}])
    with pytest.raises(TelemetryError, match="'kind'"):
        TelemetrySink([{"anchor_cap": 8}])
    with pytest.raises(TelemetryError, match="cannot build a probe"):
        TelemetrySink([42])

    instance = _scenario_instance("uniform-euclidean", 0)
    sink = TelemetrySink(["opening-rate"])
    sink.bind(instance.metric, instance.cost_function)
    with pytest.raises(TelemetryError, match="fresh sink per session"):
        sink.bind(instance.metric, instance.cost_function)

    # The competitive-ratio probe needs its environment before observing.
    unbound = METRICS_PROBES.build("competitive-ratio")
    event_source = _session(instance, "pd-omflp", 0, None)
    event = event_source.submit(0, [0])
    with pytest.raises(TelemetryError, match="before bind"):
        unbound.observe(event)


# ---------------------------------------------------------------------------
# The zero-cost contract: telemetry on == telemetry off, exactly
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm,scenario,seed", ZERO_COST_CASES)
def test_telemetry_is_exactly_zero_cost(algorithm, scenario, seed):
    """Full stock catalog attached vs no telemetry: identical runs.

    Equality is ``==`` throughout — same events (decisions *and* costs), same
    final RNG state (no probe ever draws from the session's generator), same
    finalized record totals.
    """
    instance = _scenario_instance(scenario, seed)
    plain = _session(instance, algorithm, seed, None)
    probed = _session(instance, algorithm, seed, True)

    for request in instance.requests:
        event_plain = plain.submit(request.point, request.commodities)
        event_probed = probed.submit(request.point, request.commodities)
        assert event_probed == event_plain

    assert rng_state(probed._rng) == rng_state(plain._rng)
    record_plain, record_probed = plain.finalize(), probed.finalize()
    assert record_probed.total_cost == record_plain.total_cost
    assert record_probed.opening_cost == record_plain.opening_cost
    assert record_probed.connection_cost == record_plain.connection_cost

    # The probes did observe the stream they left untouched.
    summary = probed.telemetry_summary()
    assert set(summary) == set(DEFAULT_PROBES)
    for kind in DEFAULT_PROBES:
        assert summary[kind]["num_requests"] == len(instance.requests)
    assert summary["cost-decomposition"]["total_cost"] == pytest.approx(
        record_plain.total_cost
    )


# ---------------------------------------------------------------------------
# Durability: snapshots carry telemetry bit-identically
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", sorted(EXAMPLE_SPECS))
def test_snapshot_resume_carries_every_probe(kind, seed):
    """All 16 scenario kinds: a resumed session continues its metrics exactly.

    The restored sink must equal the snapshotted one bit-for-bit; after
    streaming the remainder, the whole sink state equals an uninterrupted
    run's (probes read no clock, so nothing differs across the interruption).
    """
    spec = {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS[kind], "seed": seed}
    reference = ScenarioSession(spec, telemetry=True)
    reference_events = reference.advance(24)

    session = ScenarioSession(spec, telemetry=True)
    head = session.advance(12)
    snapshot_json = session.snapshot().to_json()
    restored = ScenarioSession.restore(snapshot_json)
    assert restored.telemetry.state_dict() == session.telemetry.state_dict()

    tail = restored.advance(12)
    assert head + tail == reference_events

    assert restored.telemetry.state_dict() == reference.telemetry.state_dict()


#: A ScenarioSession snapshot (rand-omflp, stock telemetry, 24 of 60
#: clustered requests) written while the stock catalog had a ``latency``
#: probe, and the uninterrupted run's total recorded with it.
LATENCY_ERA_SNAPSHOT = GOLDEN_DIR / "rand_omflp_telemetry_snapshot.json"
LATENCY_ERA_TOTAL = 14.537262820605534


def test_a_snapshot_with_a_latency_probe_resumes_equal():
    """The older sink state loads with its latency entry dropped; the run
    continues equal to an uninterrupted one in events, costs and every
    remaining probe's state."""
    data = json.loads(LATENCY_ERA_SNAPSHOT.read_text())
    probes = data["telemetry"]["probes"]
    assert [entry["spec"]["kind"] for entry in probes] == [
        "cost-decomposition",
        "opening-rate",
        "latency",
        "competitive-ratio",
    ]
    restored = ScenarioSession.restore(data)
    assert restored.telemetry.kinds == list(DEFAULT_PROBES)
    uninterrupted = ScenarioSession(data["spec"], telemetry=True)
    uninterrupted.advance(data["num_requests"])
    assert restored.telemetry.state_dict() == uninterrupted.telemetry.state_dict()
    assert restored.telemetry.state_dict()["probes"] == [
        entry for entry in probes if entry["spec"]["kind"] != "latency"
    ]

    assert restored.advance() == uninterrupted.advance()
    records = restored.finalize(), uninterrupted.finalize()
    assert records[0].total_cost == records[1].total_cost == LATENCY_ERA_TOTAL
    assert records[0].num_facilities == records[1].num_facilities
    assert restored.telemetry.state_dict() == uninterrupted.telemetry.state_dict()


def test_sink_from_state_dict_is_unbound_and_exact():
    instance = _scenario_instance("clustered-euclidean", 3)
    session = _session(instance, "rand-omflp", 3, True)
    for request in instance.requests:
        session.submit(request.point, request.commodities)
    state = json.loads(json.dumps(session.telemetry.state_dict()))
    rebuilt = TelemetrySink.from_state_dict(state)
    assert rebuilt.bound is False
    assert rebuilt.state_dict() == session.telemetry.state_dict()
    assert rebuilt.summary() == session.telemetry.summary()


# ---------------------------------------------------------------------------
# The rolling competitive-ratio estimate vs the post-hoc batch computation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "algorithm,scenario",
    [
        ("pd-omflp", "uniform-euclidean"),
        ("rand-omflp", "clustered-euclidean"),
        ("per-commodity-fotakis", "grid-l1"),
        ("meyerson-ofl", "euclidean-single"),
    ],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_rolling_ratio_matches_batch_at_finalize(algorithm, scenario, seed):
    instance = _scenario_instance(scenario, seed)
    probe = CompetitiveRatioProbe()
    session = _session(instance, algorithm, seed, [probe])
    for request in instance.requests:
        session.submit(request.point, request.commodities)
    record = session.finalize()

    batch = streaming_lower_bound(instance)
    assert probe.lower_bound == batch.value

    summary = probe.summary()
    assert summary["num_requests"] == len(instance.requests)
    assert summary["online_cost"] == record.total_cost
    assert summary["offline_lower_bound"] == batch.value
    if batch.value > 0:
        assert summary["ratio_upper_bound"] == record.total_cost / batch.value
        # A valid lower bound never exceeds what the online algorithm paid.
        assert summary["ratio_upper_bound"] >= 1.0


def test_incremental_bound_is_prefix_exact_and_durable():
    """update() after k requests == the batch shim on the k-prefix, for all k;
    a mid-stream state round-trip continues identically."""
    instance = _scenario_instance("uniform-euclidean", 7)
    incremental = IncrementalOfflineBound(instance.metric, instance.cost_function)
    requests = list(instance.requests)
    resumed = None
    for served, request in enumerate(requests, start=1):
        value = incremental.update(request)
        prefix = Instance(
            instance.metric,
            instance.cost_function,
            RequestSequence(requests[:served]),
            commodities=instance.commodities,
        )
        assert value == streaming_lower_bound(prefix).value
        if served == len(requests) // 2:
            state = json.loads(json.dumps(incremental.state_dict()))
            resumed = IncrementalOfflineBound(
                instance.metric, instance.cost_function
            )
            resumed.load_state_dict(state)
        elif resumed is not None:
            assert resumed.update(request) == value
    assert resumed is not None
    assert resumed.state_dict() == incremental.state_dict()


# ---------------------------------------------------------------------------
# repro report: golden rendering and the regression gate
# ---------------------------------------------------------------------------
def _tiny_store(directory: Path) -> ResultStore:
    """A fixed two-task sweep with engine telemetry rows, fully deterministic."""
    store = ResultStore(directory)
    for index, (n, cost) in enumerate([(4, 2.0), (8, 3.0), (16, 4.5)]):
        store.put(
            f"curve{index:07d}",
            task="demo/curve",
            case={"n": n},
            seed=0,
            rows=[
                {
                    "n": n,
                    "algorithm": "pd-omflp",
                    "cost": cost,
                    "upper_bound_cost": 2.0 * cost,
                }
            ],
            runtime_seconds=0.5,
            plan="demo",
            telemetry={
                "task": "demo/curve",
                "index": index,
                "seed": 0,
                "rows": 1,
                "runtime_seconds": 0.5,
                "reused": False,
            },
        )
    store.put(
        "ratio000000",
        task="demo/ratio",
        case={},
        seed=1,
        rows=[
            {"scenario": "uniform", "algorithm": "pd-omflp", "ratio": 1.5},
            {"scenario": "zipf", "algorithm": "pd-omflp", "ratio": 2.0},
            {
                "scenario": "burst",
                "algorithm": "pd-omflp",
                "ratio": 1.25,
                "note": "a\nmulti-line   cell " + "x" * 150,
            },
        ],
        runtime_seconds=0.25,
        plan="demo",
        telemetry={
            "task": "demo/ratio",
            "index": 0,
            "seed": 1,
            "rows": 3,
            "runtime_seconds": 0.25,
            "reused": True,
        },
    )
    return store


def test_report_golden_markdown(tmp_path):
    """Byte-exact rendering of a tiny sweep against the committed golden file."""
    _tiny_store(tmp_path / "store")
    result = render_report(
        store=tmp_path / "store", out_dir=tmp_path / "out", title="golden report"
    )
    assert result.tasks == ["demo/curve", "demo/ratio"]
    produced = result.markdown_path.read_text()
    golden = (GOLDEN_DIR / "report_tiny.md").read_text()
    assert produced == golden


def test_report_html_is_self_contained(tmp_path):
    _tiny_store(tmp_path / "store")
    result = render_report(
        store=tmp_path / "store", out_dir=tmp_path / "out", title="golden report"
    )
    html = result.html_path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "golden report" in html
    # Inline SVG chart for the cost-vs-n curve, dashed paper-bound overlay.
    assert "<svg" in html and "polyline" in html
    assert "stroke-dasharray" in html
    # Multi-line cells were sanitized, never raw.
    assert "\nmulti-line" not in html
    # No external resources: self-contained by construction (the only URL is
    # the SVG xmlns declaration, which is an identifier, not a fetch).
    assert "<script src" not in html and "<link" not in html
    assert "<img" not in html


def test_report_baseline_gate_passes_then_flags_drift(tmp_path):
    store_dir = tmp_path / "store"
    _tiny_store(store_dir)
    baseline = tmp_path / "baseline.json"
    first = render_report(
        store=store_dir, out_dir=tmp_path / "out1", write_baseline=baseline
    )
    assert first.baseline_written == baseline
    clean = render_report(
        store=store_dir, out_dir=tmp_path / "out2", baseline=baseline
    )
    assert clean.regressions == [] and clean.failed is False

    # Perturb one ratio: the gate must flag the exact task and column.
    store = ResultStore(store_dir)
    store.put(
        "ratio000000",
        task="demo/ratio",
        case={},
        seed=1,
        rows=[{"scenario": "uniform", "algorithm": "pd-omflp", "ratio": 9.9}],
        runtime_seconds=0.25,
        plan="demo",
    )
    drifted = render_report(
        store=store_dir, out_dir=tmp_path / "out3", baseline=baseline
    )
    assert drifted.failed is True
    flagged = {(r["task"], r.get("column")) for r in drifted.regressions}
    assert ("demo/ratio", "ratio") in flagged
    # The markdown carries the gate verdict for humans.
    assert "Regression gate" in drifted.markdown_path.read_text()


def test_report_requires_exactly_one_source(tmp_path):
    with pytest.raises(TelemetryError, match="exactly one"):
        render_report(out_dir=tmp_path)
    with pytest.raises(TelemetryError, match="no readable entries"):
        render_report(store=tmp_path / "empty", out_dir=tmp_path / "out")


def test_report_renders_run_records(tmp_path):
    """The --records path: finalized RunRecord JSON files as one table."""
    instance = _scenario_instance("uniform-euclidean", 2)
    session = _session(instance, "pd-omflp", 2, None)
    for request in instance.requests:
        session.submit(request.point, request.commodities)
    record_path = tmp_path / "run.json"
    record_path.write_text(json.dumps(session.finalize().to_dict()))
    result = render_report(
        records=[record_path], out_dir=tmp_path / "out", formats=("markdown",)
    )
    assert result.html_path is None
    markdown = result.markdown_path.read_text()
    assert "total_cost" in markdown
