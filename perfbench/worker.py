"""Run one workload in this (fresh) process and print one JSON result line.

``run.py`` starts this script once per measurement, so peak memory and
import warm-up of one run never leak into another::

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \\
        --mode plain|reference|traced [--seconds S]

Modes:

``plain``      untraced; repeats units until ``--seconds`` are spent and
               prints the end-to-end metrics;
``reference``  untraced; one unit without extra set-ups, for the overhead;
``traced``     the same unit with every layer wrapped; prints the per-layer
               metrics and writes the spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

import numpy as np

from layers import SpanRecorder, instrument, layer_metrics
from workloads import WORKLOADS, Clock, Samples

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"

PHASE_FIELDS = ("setup", "request", "ctl", "finalize", "replay", "other")


def lower_quartile(units: List[Samples]) -> Dict[str, np.ndarray]:
    """Per phase, the lower quartile of each sample position over the units.

    Every unit of a run serves the same inputs, so the ``i``-th sample of a
    phase is the same work in every unit.  The times are already scaled to
    the reference host speed; what is left is mostly brief interference that
    only slows a sample down.  The lower quartile of a position's repeats
    drops those, and unlike their minimum it does not pick the repeat that
    a speed probe's own error scaled furthest down.
    """
    series = {}
    for phase in PHASE_FIELDS:
        rows = [getattr(samples, phase) for samples in units]
        if len({len(row) for row in rows}) != 1:
            raise ValueError(f"units measured different numbers of {phase} samples")
        series[phase] = np.percentile(np.asarray(rows, dtype=float), 25, axis=0)
    return series


def end_to_end(workload: Any, units: List[Samples]) -> Dict[str, float]:
    series = lower_quartile(units)
    request = series["request"]
    return {
        "setup_s": float(np.median(series["setup"])),
        "req_per_s": len(request) / float(request.sum()),
        "req_p50_us": float(np.percentile(request, 50)) * 1e6,
        "req_p99_us": float(np.percentile(request, 99)) * 1e6,
        "ctl_op_p50_us": float(np.median(series["ctl"])) * 1e6,
        "finalize_s": float(np.median(series["finalize"])),
        "tasks_per_s": workload.runs / workload.run_seconds(series),
        "warm_replay_s": float(np.median(series["replay"])),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(name: str, mode: str, seed: int, seconds: float, work: Path) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    recorder = SpanRecorder() if mode == "traced" else None
    workload.prepare(work)
    if recorder is not None:
        instrument(recorder)
    clock = Clock(recorder)
    units: List[Samples] = []
    result: Dict[str, Any] = {}
    start = perf_counter()
    try:
        # Whole units only, and none that would likely end past the budget;
        # the reference and traced modes run one unit, without extra set-ups.
        while not units or (
            mode == "plain" and (perf_counter() - start) * (len(units) + 1) / len(units) <= seconds
        ):
            # Start every unit from a collected heap, so the previous unit's
            # garbage is not collected inside this one's timings.
            gc.collect()
            units.append(Samples())
            requests = workload.unit(
                seed,
                clock,
                units[-1],
                work,
                first=len(units) == 1,
                reps=mode == "plain",
            )
            if len(units) == 1:
                result["unit_seconds"] = perf_counter() - start
    except Exception as error:  # noqa: BLE001 - reported as a failed operation
        units[-1].check(False, f"{type(error).__name__}: {error}")
    result.update(
        units=len(units),
        attempted=sum(samples.attempted for samples in units),
        failed=sum(samples.failed for samples in units),
        problems=[problem for samples in units for problem in samples.problems],
    )
    if result["failed"]:
        return result
    if mode == "plain":
        try:
            result["metrics"] = end_to_end(workload, units)
        except ValueError as error:
            result["failed"] += 1
            result["problems"].append(str(error))
    elif recorder is not None:
        result["layers"] = layer_metrics(recorder, requests)
        result["spans"] = len(recorder)
        recorder.save(OUTPUT / f"spans-{name}-seed{seed}.npz")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "reference", "traced"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT):
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT}", file=sys.stderr)
        return 2
    work = OUTPUT / f"work-{os.getpid()}"
    try:
        result = run(args.workload, args.mode, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
