"""Tests of the benchmark itself.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    assert first["correct"] and second["correct"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_lists_the_workloads_and_count_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in COUNT_METRICS:
        assert per_layer[name] in ("count", "ratio"), name
