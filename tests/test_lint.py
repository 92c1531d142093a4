"""Tests for :mod:`repro.lint` — rules, suppressions, runner, CLI and the
meta-gate that keeps the repository itself clean.

Fixture files under ``tests/lint_fixtures/`` are self-describing: every line
that must be flagged carries a trailing ``# EXPECT: rule-id`` marker, and the
fixture test compares the *exact* set of ``(line, rule_id)`` findings against
the markers — so each fixture pins its rule's positives and negatives at
once.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.base import OnlineAlgorithm
from repro.api.registry import Registry
from repro.exceptions import ReproError
from repro.lint import RULES, lint_paths, lint_source
from repro.lint.contracts import ContractContext, _strict_json_violations
from repro.lint.rules import all_rules, rule_catalog
from repro.lint.runner import collect_files

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
EXPECT_MARK = re.compile(r"#\s*EXPECT:\s*(?P<rules>[\w\-, ]+)")


def expected_findings(path: Path):
    """``{(line, rule_id)}`` declared by the fixture's EXPECT markers."""
    pairs = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = EXPECT_MARK.search(line)
        if match is None:
            continue
        for rule_id in match.group("rules").split(","):
            pairs.add((lineno, rule_id.strip()))
    return pairs


# ----------------------------------------------------------------------
# Fixture files: exact positive + negative coverage per rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture",
    sorted(FIXTURES.rglob("*.py")),
    ids=lambda path: str(path.relative_to(FIXTURES)),
)
def test_fixture_matches_expectations(fixture):
    result = lint_paths([fixture], contracts=False)
    actual = {(finding.line, finding.rule_id) for finding in result.findings}
    assert actual == expected_findings(fixture)


def test_every_determinism_rule_has_a_fixture_positive():
    covered = set()
    for fixture in FIXTURES.rglob("*.py"):
        covered |= {rule_id for _, rule_id in expected_findings(fixture)}
    determinism_ids = {rule.id for rule in all_rules() if rule.family == "determinism"}
    assert determinism_ids <= covered


# ----------------------------------------------------------------------
# Suppression semantics
# ----------------------------------------------------------------------
HAZARD = "import numpy as np\nvalue = np.random.random(){comment}\n"


def test_reasoned_noqa_suppresses_and_records_reason():
    text = HAZARD.format(
        comment="  # repro: noqa[det-global-random] -- demo uses ambient entropy"
    )
    result = lint_source(text)
    assert result.ok
    (waived,) = result.suppressed
    assert waived.rule_id == "det-global-random"
    assert waived.suppressed is True
    assert waived.suppression_reason == "demo uses ambient entropy"


def test_noqa_without_reason_does_not_suppress():
    text = HAZARD.format(comment="  # repro: noqa[det-global-random]")
    result = lint_source(text)
    assert not result.ok
    assert result.counts() == {"det-global-random": 1, "noqa-missing-reason": 1}
    assert result.suppressed == []


def test_noqa_for_other_rule_does_not_suppress():
    text = HAZARD.format(comment="  # repro: noqa[det-wall-clock] -- wrong id")
    result = lint_source(text)
    assert {finding.rule_id for finding in result.findings} == {"det-global-random"}


def test_noqa_with_unknown_rule_id_is_reported():
    text = HAZARD.format(comment="  # repro: noqa[det-bogus] -- typo'd id")
    result = lint_source(text)
    assert result.counts() == {"det-global-random": 1, "noqa-unknown-rule": 1}


def test_noqa_can_cover_multiple_rules():
    text = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "value = np.random.default_rng()  "
        "# repro: noqa[det-unseeded-rng, det-global-random] -- fixture\n"
    )
    result = lint_source(text)
    assert result.ok
    assert [finding.rule_id for finding in result.suppressed] == ["det-unseeded-rng"]


def test_meta_findings_cannot_be_suppressed():
    text = HAZARD.format(
        comment="  # repro: noqa[det-bogus, noqa-unknown-rule] -- trying to waive the meta rule"
    )
    result = lint_source(text)
    # The unknown-id finding survives even though the comment names the meta
    # rule with a reason.
    assert "noqa-unknown-rule" in result.counts()


def test_noqa_inside_docstring_is_text_not_suppression():
    text = (
        '"""Docs may mention # repro: noqa[det-global-random] -- example."""\n'
        "import numpy as np\n"
        "value = np.random.random()\n"
    )
    result = lint_source(text)
    assert result.counts() == {"det-global-random": 1}


def test_parse_error_is_a_finding():
    result = lint_source("def broken(:\n")
    (finding,) = result.findings
    assert finding.rule_id == "parse-error"
    assert finding.line >= 1


# ----------------------------------------------------------------------
# Runner plumbing
# ----------------------------------------------------------------------
def test_collect_files_rejects_missing_paths(tmp_path):
    with pytest.raises(ReproError, match="does not exist"):
        collect_files([tmp_path / "nope.py"])


def test_select_restricts_rule_set():
    text = HAZARD.format(comment="") + "import time\nnow = time.time()\n"
    result = lint_source(text, select=["det-wall-clock"])
    assert result.counts() == {"det-wall-clock": 1}
    assert result.rule_ids == ["det-wall-clock"]


def test_injected_global_random_is_located(tmp_path):
    scratch = tmp_path / "scratch.py"
    scratch.write_text("import numpy as np\nvalue = np.random.random()\n")
    result = lint_paths([scratch], contracts=False)
    (finding,) = result.findings
    assert finding.rule_id == "det-global-random"
    assert finding.path == str(scratch)
    assert finding.line == 2
    assert finding.location() == f"{scratch}:2:9"


def test_json_document_schema(tmp_path):
    scratch = tmp_path / "scratch.py"
    scratch.write_text("import numpy as np\nvalue = np.random.random()\n")
    document = lint_paths([scratch], contracts=False).to_dict()
    # Strict JSON end to end.
    assert json.loads(json.dumps(document)) == document
    assert document["version"] == 1
    assert document["ok"] is False
    assert document["files_scanned"] == 1
    assert document["counts"] == {"det-global-random": 1}
    (finding,) = document["findings"]
    assert set(finding) == {
        "rule",
        "path",
        "line",
        "column",
        "message",
        "hint",
        "suppressed",
        "suppression_reason",
    }
    assert finding["rule"] == "det-global-random"
    assert finding["line"] == 2


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
def test_rules_registry_shape():
    names = RULES.names()
    assert len(names) == len(set(names))
    for rule in all_rules():
        assert re.fullmatch(r"[a-z][a-z0-9-]*", rule.id)
        assert rule.family in {"determinism", "contract", "meta"}
        assert rule.summary and rule.threat
    catalog = rule_catalog()
    assert {row["id"] for row in catalog} == set(names)


def test_unknown_select_gets_did_you_mean():
    with pytest.raises(ReproError, match="det-global-random"):
        all_rules(["det-global-randon"])


# ----------------------------------------------------------------------
# Contract rules against injected fake registries
# ----------------------------------------------------------------------
class _HalfSnapshotAlgorithm(OnlineAlgorithm):
    """Overrides state_dict but not load_state_dict: the pairing bug."""

    name = "half-snapshot"

    def process(self, request, state, rng) -> None:  # pragma: no cover
        pass

    def state_dict(self):
        return {"facilities": []}


class _LeakySnapshotAlgorithm(OnlineAlgorithm):
    """Paired hooks, but the snapshot leaks a NumPy scalar."""

    name = "leaky-snapshot"

    def process(self, request, state, rng) -> None:  # pragma: no cover
        pass

    def state_dict(self):
        return {"total": np.float64(1.5)}

    def load_state_dict(self, state) -> None:  # pragma: no cover
        pass


class _CleanAlgorithm(OnlineAlgorithm):
    name = "clean"

    def process(self, request, state, rng) -> None:  # pragma: no cover
        pass


def _fake_context(algorithms: Registry) -> ContractContext:
    return ContractContext(
        algorithms=algorithms,
        scenarios=Registry("scenario", strict_params=True),
        scenario_examples={},
        strict_registries={},
        param_registries={},
        smoke_run=lambda algorithm: None,
    )


def _contract_findings(ctx: ContractContext, rule_id: str):
    result = lint_paths([], select=[rule_id], contract_context=ctx)
    return result.findings


def test_state_dict_pair_flags_half_override():
    registry = Registry("algorithm")
    registry.add("half-snapshot", _HalfSnapshotAlgorithm)
    registry.add("clean", _CleanAlgorithm)
    findings = _contract_findings(_fake_context(registry), "con-state-dict-pair")
    (finding,) = findings
    assert finding.rule_id == "con-state-dict-pair"
    assert "half-snapshot" in finding.message
    assert "load_state_dict" in finding.message
    assert finding.path.endswith("test_lint.py")  # anchored at the class


def test_strict_json_flags_numpy_scalar_in_snapshot():
    registry = Registry("algorithm")
    registry.add("leaky-snapshot", _LeakySnapshotAlgorithm)
    registry.add("clean", _CleanAlgorithm)
    findings = _contract_findings(_fake_context(registry), "con-strict-json")
    (finding,) = findings
    assert "leaky-snapshot" in finding.message
    assert "float64" in finding.message


def test_strict_params_flags_lax_registry_and_kwargs_builder():
    lax = Registry("scenario")  # strict_params missing

    def opaque_builder(**kwargs):  # hides its parameters
        return None

    params = Registry("workload")
    params.add("opaque", opaque_builder)
    ctx = ContractContext(
        algorithms=Registry("algorithm"),
        scenarios=Registry("scenario", strict_params=True),
        scenario_examples={},
        strict_registries={"scenario": lax},
        param_registries={"workload": params},
        smoke_run=lambda algorithm: None,
    )
    findings = _contract_findings(ctx, "con-strict-params")
    messages = sorted(finding.message for finding in findings)
    assert len(messages) == 2
    assert any("strict_params" in message for message in messages)
    assert any("**kwargs" in message for message in messages)


def test_strict_json_violation_paths():
    violations = list(
        _strict_json_violations({"a": [1, np.float64(2.0)], "b": {"c": (1, 2)}})
    )
    assert any("$.a[1]" in violation for violation in violations)
    assert any("$.b.c" in violation and "tuple" in violation for violation in violations)
    assert list(_strict_json_violations({"x": [1, 2.5, "s", True, None]})) == []


def test_contract_rules_pass_on_real_catalog():
    result = lint_paths([], contracts=True)
    assert [finding.format() for finding in result.findings] == []


# ----------------------------------------------------------------------
# The meta-gate: this repository lints clean
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    result = lint_paths([REPO_ROOT / "src"])
    assert [finding.format() for finding in result.findings] == []
    # Every waiver must carry its written reason.
    for finding in result.suppressed:
        assert finding.suppression_reason, finding.format()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, capsys):
    from repro.cli import main

    scratch = tmp_path / "scratch.py"
    scratch.write_text("import numpy as np\nvalue = np.random.random()\n")
    assert main(["lint", str(scratch), "--format", "json", "--no-contracts"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    assert document["findings"][0]["rule"] == "det-global-random"

    clean = tmp_path / "clean.py"
    clean.write_text("value = 1 + 1\n")
    assert main(["lint", str(clean), "--no-contracts"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    from repro.cli import main

    assert main(["lint", "--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in output


def test_repro_help_lists_every_subcommand():
    from repro.cli import SUBCOMMANDS, build_parser

    assert SUBCOMMANDS.names() == [
        "list",
        "run",
        "run-all",
        "experiments",
        "spec",
        "scenarios",
        "serve",
        "report",
        "trace",
        "lint",
    ]
    help_text = build_parser().format_help()
    for name in SUBCOMMANDS.names():
        assert name in help_text


# ----------------------------------------------------------------------
# External tool gates (run only where the tools exist, e.g. CI)
# ----------------------------------------------------------------------
@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff is not installed")
def test_ruff_is_clean():
    completed = subprocess.run(
        ["ruff", "check", "src"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy is not installed")
def test_mypy_is_clean():
    completed = subprocess.run(
        [sys.executable, "-m", "mypy"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
