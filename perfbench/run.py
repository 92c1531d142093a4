"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload stream-meyerson --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: one fresh
worker process repeats the workload's units for ``--seconds`` seconds.
``--trace 1`` gives the per-layer metrics instead: one fresh untraced worker
and one fresh traced worker each run one unit of the seed (a fixed amount
of work, so counts repeat exactly), and ``trace.overhead_ratio`` compares
their wall times.  Workloads and metrics are described in
``perfbench/README.md``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; ``failed / attempted`` is the error rate.  The exit code is 0
when every output check passed, 1 when one failed, and 2 (with no result
line) when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Hard limit for the whole command.
DEADLINE_SECONDS = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> Dict[str, Any]:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
    ]
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{mode} worker timed out") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    deadline = perf_counter() + DEADLINE_SECONDS
    if args.trace:
        workers = [
            run_worker(args.workload, args.seed, mode, args.seconds, deadline)
            for mode in ("reference", "traced")
        ]
    else:
        workers = [run_worker(args.workload, args.seed, "plain", args.seconds, deadline)]
    problems: List[str] = [problem for worker in workers for problem in worker["problems"]]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result: Dict[str, Any] = {
        "correct": not problems,
        "attempted": sum(worker["attempted"] for worker in workers),
        "failed": sum(worker["failed"] for worker in workers),
        "metrics": {},
    }
    if problems:
        return result
    if args.trace:
        reference, traced = workers
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["unit_seconds"] / reference["unit_seconds"] - 1.0
        units = metric_units("per_layer")
    else:
        values = workers[0]["metrics"]
        units = metric_units("end_to_end")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "repro" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing", file=sys.stderr)
            return 2
    try:
        result = measure(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
