"""Tests for the experiment registry, the individual experiments and the CLI.

Every registered experiment is executed with the quick profile; beyond "it
runs", each test checks the experiment-specific claims that EXPERIMENTS.md
reports (growth exponents, bound checks, expected winners).
"""

import json
import math

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import get_experiment, list_experiments, run_experiment
from repro.cli import build_parser, main


class TestRegistry:
    def test_all_design_md_experiments_registered(self):
        ids = list_experiments()
        expected = {
            "fig2-bound-curves",
            "thm2-single-point",
            "cor3-line-adversary",
            "thm4-pd-scaling",
            "thm19-rand-scaling",
            "thm18-cost-class",
            "baseline-separation",
            "duality-certificates",
            "covering-lemma",
            "fig3-connection-trace",
            "fotakis-ofl-regression",
        }
        assert expected <= set(ids)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("does-not-exist")
        with pytest.raises(ExperimentError):
            run_experiment("fig2-bound-curves", profile="huge")


@pytest.fixture(scope="module")
def quick_results():
    """Run every experiment once (quick profile) and cache the results."""
    return {
        experiment_id: run_experiment(experiment_id, profile="quick", rng=0)
        for experiment_id in list_experiments()
    }


class TestAllExperimentsRun:
    def test_every_experiment_produces_rows_and_notes(self, quick_results):
        for experiment_id, result in quick_results.items():
            assert result.experiment_id == experiment_id
            assert result.rows, experiment_id
            assert result.notes, experiment_id
            assert result.to_table()
            assert result.to_markdown()


class TestFigure2:
    def test_curves_coincide_at_special_points_and_peak(self, quick_results):
        result = quick_results["fig2-bound-curves"]
        by_x = {row["x"]: row for row in result.rows}
        for x in (0.0, 1.0, 2.0):
            assert by_x[x]["gap_factor"] == pytest.approx(1.0)
        assert by_x[1.0]["upper_bound_sqrtS_power"] == pytest.approx(10_000**0.25)
        assert by_x[0.0]["upper_bound_sqrtS_power"] == pytest.approx(1.0)
        assert by_x[2.0]["lower_bound_sqrtS_power"] == pytest.approx(1.0)
        peak = max(row["upper_bound_sqrtS_power"] for row in result.rows)
        assert peak == pytest.approx(by_x[1.0]["upper_bound_sqrtS_power"])


class TestTheorem2:
    def test_every_algorithm_pays_at_least_sqrt_s(self, quick_results):
        result = quick_results["thm2-single-point"]
        for row in result.rows:
            assert row["opt_cost"] == pytest.approx(1.0)
            assert row["ratio"] >= 0.9 * row["predicted_sqrt_S"]
        assert result.extra_text and "Figure 1" in result.extra_text

    def test_pd_exponent_close_to_half(self, quick_results):
        result = quick_results["thm2-single-point"]
        note = next(n for n in result.notes if n.startswith("pd-omflp"))
        exponent = float(note.split("|S|^")[1].split()[0])
        assert 0.4 <= exponent <= 0.65


class TestBaselineSeparation:
    def test_constant_cost_separation(self, quick_results):
        result = quick_results["baseline-separation"]
        constant_rows = [r for r in result.rows if r["cost_kind"] == "constant"]
        largest = max(r["num_commodities"] for r in constant_rows)
        by_algorithm = {
            r["algorithm"]: r["ratio"]
            for r in constant_rows
            if r["num_commodities"] == largest
        }
        assert by_algorithm["per-commodity-fotakis"] >= largest * 0.9
        assert by_algorithm["pd-omflp"] <= 4.0
        assert by_algorithm["rand-omflp"] <= 10.0
        # The separation factor is at least of the order sqrt(|S|).
        assert (
            by_algorithm["per-commodity-fotakis"] / by_algorithm["pd-omflp"]
            >= math.sqrt(largest) / 2
        )


class TestDualityCertificates:
    def test_corollary8_and_gamma_feasibility(self, quick_results):
        result = quick_results["duality-certificates"]
        for row in result.rows:
            assert row["primal_over_duals"] <= 3.0 + 1e-9
            assert row["gamma_feasible"] is True or row["gamma_feasible"] == True  # noqa: E712
            assert row["max_feasible_scale"] >= row["gamma"] - 1e-12
            if not math.isnan(row["exact_opt"]):
                assert row["weak_duality_lower_bound"] <= row["exact_opt"] + 1e-6


class TestCoveringLemma:
    def test_bound_never_exceeded(self, quick_results):
        result = quick_results["covering-lemma"]
        for row in result.rows:
            assert row["max_weight_over_bound"] <= 1.0 + 1e-9


class TestScalingExperiments:
    def test_thm4_rows_have_valid_ratios(self, quick_results):
        result = quick_results["thm4-pd-scaling"]
        for row in result.rows:
            # Ratios are measured against the best available offline reference;
            # against an *upper bound* on OPT they may dip slightly below 1.
            assert row["ratio"] >= 0.6
            if row["reference_kind"] == "exact":
                assert row["ratio"] >= 1.0 - 1e-6
            assert row["reference_kind"] in ("exact", "upper-bound", "analytic")

    def test_thm19_includes_head_to_head(self, quick_results):
        result = quick_results["thm19-rand-scaling"]
        sweeps = {row["sweep"] for row in result.rows}
        assert "head-to-head" in sweeps
        head_to_head = [r for r in result.rows if r["sweep"] == "head-to-head"]
        for row in head_to_head:
            assert 0.2 <= row["ratio"] <= 5.0  # RAND within a small factor of PD

    def test_thm18_has_both_sides(self, quick_results):
        result = quick_results["thm18-cost-class"]
        sides = {row["side"] for row in result.rows}
        assert sides == {"adversary", "workload"}
        for row in result.rows:
            if row["side"] == "adversary":
                assert row["ratio"] >= 0.99  # OPT is analytic on the adversary side
            else:
                assert row["ratio"] >= 0.5  # heuristic (upper-bound) reference
        # At x = 2 (linear costs) the adversary cannot beat constant ratios by
        # exploiting bundling: predicted lower bound is 1.
        linear_rows = [r for r in result.rows if r["x"] == 2.0 and r["side"] == "adversary"]
        for row in linear_rows:
            assert row["predicted_lower"] == pytest.approx(1.0)

    def test_cor3_rows(self, quick_results):
        result = quick_results["cor3-line-adversary"]
        for row in result.rows:
            assert row["predicted_shape"] >= math.sqrt(row["num_commodities"])
            assert row["single_point_ratio"] >= 1.0
            assert row["line_game_ratio"] > 0.0

    def test_fig3_trace_reports_both_modes(self, quick_results):
        result = quick_results["fig3-connection-trace"]
        assert result.extra_text and "Figure 3" in result.extra_text
        assert all(row["connection_cost"] >= 0 for row in result.rows)

    def test_ofl_substrate_ratios_small(self, quick_results):
        result = quick_results["fotakis-ofl-regression"]
        for row in result.rows:
            # The reference is local-search (an upper bound on OPT), so ratios
            # can fall below 1; they must stay within a constant band.
            assert row["ratio"] >= 0.5
            assert row["ratio"] <= 12.0


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "thm2-single-point" in output

    def test_run_command_with_output(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "fig2-bound-curves",
                "--profile",
                "quick",
                "--seed",
                "1",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fig2-bound-curves" in output
        saved = json.loads((tmp_path / "fig2-bound-curves.json").read_text())
        assert saved["experiment_id"] == "fig2-bound-curves"

    def test_run_markdown(self, capsys):
        assert main(["run", "covering-lemma", "--markdown"]) == 0
        assert "### covering-lemma" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        assert "covering-lemma" in capsys.readouterr().out

    def test_experiments_run_with_workers_and_store(self, tmp_path, capsys):
        code = main(
            [
                "experiments",
                "run",
                "covering-lemma",
                "--workers",
                "2",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        first = capsys.readouterr().out
        assert "covering-lemma" in first
        assert "0 case(s) reused" in first

        # Same grid again: every case must be served from the store.
        assert (
            main(
                [
                    "experiments",
                    "run",
                    "covering-lemma",
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
            == 0
        )
        second = capsys.readouterr().out
        assert "6 case(s) reused" in second

    def test_repro_workers_env_default(self, monkeypatch):
        from repro.cli import _default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert _default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ExperimentError):
            _default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ExperimentError):
            _default_workers()

    def test_run_uses_env_workers(self, monkeypatch, capsys):
        # Smoke: run-all style command picks up REPRO_WORKERS without flags.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert main(["run", "fig2-bound-curves"]) == 0
        assert "fig2-bound-curves" in capsys.readouterr().out
