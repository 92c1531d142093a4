"""Tests for the unified ``repro.api`` facade.

Covers the component registries (lookup, unknown-name errors, extension),
``RunSpec`` round-tripping and validation, the ``run``/``run_many``/``run_grid``
entry points, ``RunRecord`` serialization, streaming ``OnlineSession``
equivalence with batch ``run_online``, and the ``repro spec`` CLI command.
"""

import json

import pytest

from repro.algorithms.base import run_online
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.api import (
    ALGORITHMS,
    COSTS,
    METRICS,
    SOLVERS,
    WORKLOADS,
    OnlineSession,
    Registry,
    RunRecord,
    RunSpec,
    records_to_csv,
    run,
    run_grid,
    run_many,
)
from repro.analysis.runner import ExperimentResult
from repro.analysis.sweep import ParameterGrid
from repro.costs.count_based import PowerCost
from repro.exceptions import (
    AlgorithmError,
    ExperimentError,
    ReproError,
    UnknownComponentError,
)
from repro.cli import main
from repro.metric.factories import uniform_line_metric
from repro.workloads.uniform import uniform_workload

DICT_SPEC = {
    "algorithm": "pd-omflp",
    "metric": {"kind": "uniform-line", "num_points": 8},
    "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
    "requests": [[1, [0, 1]], [6, [2]], [2, [0, 3]]],
    "seed": 0,
}


class TestRegistry:
    def test_stock_registries_are_populated(self):
        assert "uniform-line" in METRICS
        assert "power" in COSTS
        assert "uniform" in WORKLOADS
        assert "pd-omflp" in ALGORITHMS
        assert "local-search" in SOLVERS

    def test_build_by_name(self):
        metric = METRICS.build("uniform-line", num_points=5)
        assert metric.num_points == 5
        algorithm = ALGORITHMS.build("pd-omflp")
        assert algorithm.name == "pd-omflp"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownComponentError, match="pd-omflp"):
            ALGORITHMS.get("not-an-algorithm")

    def test_unknown_near_miss_gets_did_you_mean(self):
        with pytest.raises(UnknownComponentError, match="did you mean 'pd-omflp'"):
            ALGORITHMS.get("pd-omfpl")
        with pytest.raises(UnknownComponentError, match="did you mean 'uniform-line'"):
            METRICS.get("uniform_line")
        # Distant names get no suggestion, just the registered list.
        with pytest.raises(UnknownComponentError) as excinfo:
            COSTS.get("zzzzzz")
        assert "did you mean" not in str(excinfo.value)

    def test_decorator_registration_and_duplicate_rejection(self):
        registry = Registry("widget")

        @registry.register("w")
        def build_widget(size=1):
            return ("widget", size)

        assert registry.build("w", size=3) == ("widget", 3)
        assert registry.names() == ["w"]
        with pytest.raises(ReproError, match="already registered"):
            registry.add("w", build_widget)

    def test_accepts_detects_rng_parameter(self):
        assert METRICS.accepts("random-euclidean", "rng")
        assert not METRICS.accepts("uniform-line", "rng")

    def test_many_builds_of_one_name_introspect_once(self, monkeypatch):
        import repro.api.registry as registry_module

        calls = []
        signature = registry_module.inspect.signature

        def counting_signature(builder):
            calls.append(builder)
            return signature(builder)

        monkeypatch.setattr(registry_module.inspect, "signature", counting_signature)
        registry = Registry("widget", strict_params=True)

        def build_widget(size=1, rng=None):
            return ("widget", size)

        registry.add("w", build_widget)
        for size in range(50):
            assert registry.build("w", size=size) == ("widget", size)
            assert registry.accepts("w", "rng")
            assert registry.accepted_params("w") == ["size", "rng"]
        assert calls == [build_widget]
        with pytest.raises(ReproError, match="unknown parameter"):
            registry.build("w", colour="red")
        assert len(calls) == 1

    def test_a_swapped_builder_is_introspected_afresh(self, monkeypatch):
        registry = Registry("widget", strict_params=True)
        registry.add("w", lambda size=1: ("widget", size))
        assert registry.accepted_params("w") == ["size"]

        def build_widget(colour="red"):
            return ("widget", colour)

        monkeypatch.setitem(registry._builders, "w", build_widget)
        assert registry.accepted_params("w") == ["colour"]
        assert registry.build("w", colour="blue") == ("widget", "blue")
        with pytest.raises(ReproError, match="unknown parameter"):
            registry.build("w", size=2)


class TestRunSpec:
    def test_from_dict_to_dict_round_trip(self):
        spec = RunSpec.from_dict(DICT_SPEC)
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.to_dict() == spec.to_dict()

    def test_workload_spec_round_trip(self):
        data = {
            "algorithm": "rand-omflp",
            "workload": {"kind": "uniform", "num_requests": 10, "num_commodities": 4},
            "seed": 7,
            "trace": True,
        }
        spec = RunSpec.from_dict(data)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_string_algorithm_normalizes(self):
        spec = RunSpec.from_dict(dict(DICT_SPEC, algorithm="pd-omflp"))
        assert spec.algorithm == {"kind": "pd-omflp"}

    def test_workload_excludes_explicit_parts(self):
        with pytest.raises(ExperimentError, match="not both"):
            RunSpec.from_dict(
                dict(DICT_SPEC, workload={"kind": "uniform", "num_requests": 5})
            )

    def test_missing_parts_rejected(self):
        with pytest.raises(ExperimentError, match="missing: requests"):
            RunSpec(algorithm="pd-omflp", metric="single-point", cost={"kind": "power",
                    "num_commodities": 2, "exponent_x": 1.0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ExperimentError, match="unknown RunSpec keys"):
            RunSpec.from_dict(dict(DICT_SPEC, banana=1))

    def test_unknown_algorithm_reported_with_both_registries(self):
        spec = RunSpec.from_dict(dict(DICT_SPEC, algorithm="nope"))
        with pytest.raises(UnknownComponentError, match="offline solvers"):
            spec.mode()

    def test_live_objects_run_but_do_not_serialize(self):
        spec = RunSpec(
            algorithm=PDOMFLPAlgorithm(),
            metric=uniform_line_metric(8),
            cost=PowerCost(4, 1.0),
            requests=[(1, (0, 1)), (6, (2,))],
        )
        record = run(spec)
        assert record.total_cost > 0
        assert not spec.is_declarative()
        with pytest.raises(ExperimentError, match="live"):
            spec.to_dict()

    def test_mode_resolution(self):
        assert RunSpec.from_dict(DICT_SPEC).mode() == "online"
        assert RunSpec.from_dict(dict(DICT_SPEC, algorithm="greedy")).mode() == "offline"

    @pytest.mark.parametrize("key", ["use_acel", "use_accel"])
    def test_build_algorithm_rejects_unknown_params(self, key):
        # A typo, or a parameter the algorithms no longer take: either way a
        # named ReproError, not a TypeError from the constructor.
        spec = RunSpec.from_dict(dict(DICT_SPEC, algorithm={"kind": "pd-omflp", key: False}))
        with pytest.raises(ReproError, match=f"unknown parameter\\(s\\) '{key}'") as info:
            spec.build_algorithm()
        assert not isinstance(info.value, TypeError)


class TestRun:
    def test_dict_scenario_runs_end_to_end(self):
        record = run(RunSpec.from_dict(DICT_SPEC))
        assert record.kind == "online"
        assert record.algorithm == "pd-omflp"
        assert record.num_requests == 3
        assert record.total_cost == pytest.approx(
            record.opening_cost + record.connection_cost
        )
        assert record.spec == RunSpec.from_dict(DICT_SPEC).to_dict()

    def test_plain_dict_accepted(self):
        assert run(DICT_SPEC).total_cost == run(RunSpec.from_dict(DICT_SPEC)).total_cost

    def test_matches_legacy_run_online(self, small_instance):
        legacy = run_online(PDOMFLPAlgorithm(), small_instance)
        spec = RunSpec(
            algorithm=PDOMFLPAlgorithm(),
            metric=small_instance.metric,
            cost=small_instance.cost_function,
            requests=[(r.point, tuple(r.commodities)) for r in small_instance.requests],
        )
        assert run(spec).total_cost == pytest.approx(legacy.total_cost)

    def test_offline_solver_spec(self):
        record = run(
            {
                "algorithm": "greedy",
                "workload": {"kind": "uniform", "num_requests": 12, "num_commodities": 4},
                "seed": 2,
            }
        )
        assert record.kind == "offline"
        assert record.num_facilities >= 1

    def test_workload_generation_is_seeded(self):
        spec = {
            "algorithm": "rand-omflp",
            "workload": {"kind": "clustered", "num_requests": 20, "num_commodities": 6},
            "seed": 9,
        }
        assert run(spec).total_cost == run(spec).total_cost

    def test_run_many_matches_serial(self):
        specs = [dict(DICT_SPEC, seed=s) for s in range(3)]
        records = run_many(specs)
        assert [r.total_cost for r in records] == [run(s).total_cost for s in specs]

    def test_run_grid_expands_dotted_keys(self):
        base = {
            "algorithm": "pd-omflp",
            "workload": {"kind": "uniform", "num_requests": 8, "num_commodities": 4},
            "seed": 0,
        }
        records = run_grid(
            base, ParameterGrid({"workload.num_commodities": [2, 4], "seed": [0, 1]})
        )
        assert len(records) == 4
        sizes = {r.spec["workload"]["num_commodities"] for r in records}
        assert sizes == {2, 4}


class TestRunRecord:
    def test_row_and_json_forms(self):
        record = run(DICT_SPEC)
        row = record.to_row()
        assert set(RunRecord.ROW_FIELDS) == set(row)
        parsed = json.loads(record.to_json())
        assert parsed["algorithm"] == "pd-omflp"
        assert parsed["spec"]["algorithm"] == {"kind": "pd-omflp"}

    def test_solution_and_trace_reachable(self):
        record = run(dict(DICT_SPEC, trace=True))
        assert record.solution is not None
        assert record.trace is not None and len(record.trace.events) > 0

    def test_records_to_csv(self, tmp_path):
        records = run_many([dict(DICT_SPEC, seed=s) for s in range(2)])
        path = records_to_csv(records, tmp_path / "sub" / "rows.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("kind,algorithm,instance,total_cost")

    def test_experiment_result_from_records(self):
        records = run_many([dict(DICT_SPEC, seed=s) for s in range(2)])
        result = ExperimentResult.from_records("api-batch", "API batch", records)
        assert len(result.rows) == 2
        assert "total_cost" in result.rows[0]


class TestOnlineSession:
    @pytest.mark.parametrize("algorithm_cls", [PDOMFLPAlgorithm, RandOMFLPAlgorithm])
    def test_streaming_equals_batch(self, algorithm_cls):
        workload = uniform_workload(
            num_requests=25, num_commodities=6, num_points=16, rng=5
        )
        instance = workload.instance
        batch = run_online(algorithm_cls(), instance, rng=11)
        session = OnlineSession(
            algorithm_cls(), instance.metric, instance.cost_function, rng=11
        )
        for request in instance.requests:
            session.submit(request.point, request.commodities)
        record = session.finalize()
        # Bit-identical, not approximately equal: one shared code path.
        assert record.total_cost == batch.total_cost
        assert record.opening_cost == batch.opening_cost
        assert record.connection_cost == batch.connection_cost

    def test_incremental_totals_match_final_record(self):
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(8), PowerCost(4, 1.0)
        )
        events = session.submit_many([(1, {0, 1}), (6, {2}), (2, {0, 3})])
        assert events[-1].total_cost_so_far == pytest.approx(session.total_cost)
        record = session.finalize()
        assert record.total_cost == pytest.approx(events[-1].total_cost_so_far)
        assert record.num_requests == 3

    def test_events_report_incremental_costs(self):
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(8), PowerCost(4, 1.0)
        )
        first = session.submit(1, {0, 1})
        assert first.request_index == 0
        assert first.opening_cost_delta > 0  # must build something for request 0
        assert first.facility_ids
        assert first.cost_delta == pytest.approx(first.total_cost_so_far)
        second = session.submit(1, {0, 1})  # identical request: reuse is free-ish
        assert second.total_cost_so_far >= first.total_cost_so_far

    def test_unknown_point_and_commodity_rejected(self):
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(4), PowerCost(2, 1.0)
        )
        with pytest.raises(Exception, match="unknown point"):
            session.submit(99, {0})
        with pytest.raises(Exception):
            session.submit(0, {5})

    def test_submit_after_finalize_rejected(self):
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(4), PowerCost(2, 1.0)
        )
        session.submit(0, {0})
        record = session.finalize()
        assert session.finalize() is record  # idempotent
        with pytest.raises(AlgorithmError, match="finalized"):
            session.submit(1, {1})

    def test_empty_session_finalizes(self):
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(4), PowerCost(2, 1.0)
        )
        record = session.finalize()
        assert record.total_cost == 0.0
        assert record.num_requests == 0

    def test_numpy_integer_seed_recorded(self):
        import numpy as np

        session = OnlineSession(
            PDOMFLPAlgorithm(),
            uniform_line_metric(4),
            PowerCost(2, 1.0),
            rng=np.int64(5),
        )
        session.submit(0, {0})
        assert session.finalize().seed == 5

    def test_generator_rng_keeps_provenance_via_rng_state(self):
        # Regression: a session started from a live generator used to lose
        # all seed provenance; the record now carries the serialized
        # bit-generator state, and replaying from it is bit-identical.
        import numpy as np

        from repro.utils.rng import rng_from_state

        generator = np.random.default_rng(123)
        generator.uniform(size=7)  # advance: not equivalent to seed 123
        session = OnlineSession(
            RandOMFLPAlgorithm(), uniform_line_metric(8), PowerCost(4, 1.0), rng=generator
        )
        events = session.submit_many([(1, {0, 1}), (6, {2}), (2, {0, 3})])
        record = session.finalize()
        assert record.seed is None
        assert record.rng_state is not None
        assert "rng_state" in record.to_dict()
        json.dumps(record.to_dict())  # JSON-compatible provenance

        replay = OnlineSession(
            RandOMFLPAlgorithm(),
            uniform_line_metric(8),
            PowerCost(4, 1.0),
            rng=rng_from_state(record.rng_state),
        )
        replayed = replay.submit_many([(1, {0, 1}), (6, {2}), (2, {0, 3})])
        assert replayed == events
        assert replay.finalize().total_cost == record.total_cost

    def test_int_seeded_record_also_carries_rng_state(self):
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(4), PowerCost(2, 1.0), rng=7
        )
        session.submit(0, {0})
        record = session.finalize()
        assert record.seed == 7
        assert record.rng_state is not None

    def test_assignment_event_dict_round_trip(self):
        session = OnlineSession(
            PDOMFLPAlgorithm(), uniform_line_metric(8), PowerCost(4, 1.0)
        )
        for event in session.submit_many([(1, {0, 1}), (6, {2}), (2, {0, 3})]):
            data = event.to_dict()
            # Wire-protocol-ready: strict JSON, frozensets as sorted lists.
            assert data["commodities"] == sorted(event.commodities)
            assert isinstance(data["facility_ids"], list)
            rebuilt = type(event).from_dict(json.loads(json.dumps(data)))
            assert rebuilt == event

    def test_legacy_run_online_passes_full_instance_to_prepare(self, small_instance):
        # Regression: the batch shim must hand algorithms the caller's real
        # instance, not the session's requestless one (known-horizon
        # algorithms read instance.requests in prepare()).
        seen = {}

        class HorizonProbe(PDOMFLPAlgorithm):
            def prepare(self, instance, state, rng):
                seen["n"] = instance.num_requests
                super().prepare(instance, state, rng)

        run_online(HorizonProbe(), small_instance)
        assert seen["n"] == small_instance.num_requests


class TestCLISpec:
    def test_spec_command_smoke(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(DICT_SPEC))
        csv_path = tmp_path / "rows.csv"
        assert main(["spec", str(path), "--csv", str(csv_path)]) == 0
        output = capsys.readouterr().out
        assert '"algorithm": "pd-omflp"' in output
        assert csv_path.exists()

    def test_spec_command_seed_override(self, tmp_path, capsys):
        data = {
            "algorithm": "rand-omflp",
            "workload": {"kind": "uniform", "num_requests": 10, "num_commodities": 4},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert main(["spec", str(path), "--seed", "4"]) == 0
        assert '"seed": 4' in capsys.readouterr().out
