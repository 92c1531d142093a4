"""Benchmark of the telemetry subsystem: probe overhead at streaming scale.

One measurement, honest by construction: the *same* scenario seed is
streamed through two ``ScenarioSession`` instances side by side — one with
telemetry disabled and one with the full stock probe catalog (cost
decomposition, opening rate, rolling competitive ratio) attached.  The
probes fold only the served events; per-request latency is the span
tracer's, whose overhead ``benchmarks/bench_trace.py`` measures.  Inside
one fresh subprocess the two sessions advance in alternating fixed-size
chunks (plain, probed, probed, plain, ...), and the
overhead is the **median of the per-chunk pair ratios**: each probed chunk
is compared only against the plain chunk timed immediately next to it, so
machine drift at the seconds scale hits both sides of every pair equally
instead of masquerading as probe overhead.  The benchmark asserts two
things:

* **zero cost in content** — both runs report exactly equal total cost and
  facility count (probes are passive; ``tests/test_telemetry.py`` pins the
  stronger per-event / RNG-state equality);
* **near-zero cost in time** — the relative overhead of all probes together
  stays under the 5% budget at n = 10^5 streamed requests.

Run as a script to emit the machine-readable result::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --json BENCH_telemetry.json
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

#: Session spec: a cheap submit path (single-commodity Meyerson on a
#: bounded uniform scenario), so the probe cost is measured against a
#: small per-request denominator rather than hidden under algorithm work.
SESSION_SPEC = {
    "algorithm": "meyerson-ofl",
    "scenario": {"kind": "uniform", "num_commodities": 1, "num_points": 1024,
                 "max_demand": 1},
    "seed": 0,
}

N = 100_000
#: Multiple of the session's 64-event telemetry flush cadence, so every
#: probed chunk contains the same number of fan-out batches.
CHUNK = 128
OVERHEAD_BUDGET = 0.05


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(case: str, n: int) -> dict:
    from repro.scenarios import ScenarioSession

    if case != "pair":
        raise SystemExit(f"unknown worker case {case!r}")
    plain = ScenarioSession(SESSION_SPEC, telemetry=False)
    probed = ScenarioSession(SESSION_SPEC, telemetry=True)
    pair_ratios = []
    plain_seconds = probed_seconds = 0.0
    done = 0
    index = 0
    while done < n:
        step = min(CHUNK, n - done)
        # Alternate which side goes first within the pair so ordering
        # effects (cache warmth, frequency ramps) cancel across pairs.
        first, second = (plain, probed) if index % 2 == 0 else (probed, plain)
        start = time.perf_counter()
        first.advance(step)
        middle = time.perf_counter()
        second.advance(step)
        end = time.perf_counter()
        if first is plain:
            t_plain, t_probed = middle - start, end - middle
        else:
            t_probed, t_plain = middle - start, end - middle
        plain_seconds += t_plain
        probed_seconds += t_probed
        if index > 0:  # drop the warm-up pair (imports, caches, JIT'd numpy)
            pair_ratios.append(t_probed / t_plain)
        done += step
        index += 1
    plain_record = plain.finalize()
    probed_record = probed.finalize()
    return {
        "plain": {
            "case": "plain",
            "n": plain_record.num_requests,
            "seconds": round(plain_seconds, 4),
            "total_cost": plain_record.total_cost,
            "num_facilities": plain_record.num_facilities,
        },
        "probed": {
            "case": "probed",
            "n": probed_record.num_requests,
            "seconds": round(probed_seconds, 4),
            "total_cost": probed_record.total_cost,
            "num_facilities": probed_record.num_facilities,
        },
        "pair_ratios": pair_ratios,
        "chunk": CHUNK,
        "peak_rss_mb": round(_rss_mb(), 1),
        "summary": probed.telemetry_summary(),
    }


def _spawn(case: str, n: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", case, "--n", str(n)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    return json.loads(completed.stdout)


def run_bench(n: int = N) -> dict:
    measured = _spawn("pair", n)
    plain = measured["plain"]
    probed = measured["probed"]

    assert probed["total_cost"] == plain["total_cost"], (
        "telemetry changed the run's total cost — zero-cost contract violation"
    )
    assert probed["num_facilities"] == plain["num_facilities"]
    ratios = sorted(measured["pair_ratios"])
    overhead = ratios[len(ratios) // 2] - 1.0
    spread = {
        "p10": round(ratios[len(ratios) // 10] - 1.0, 4),
        "median": round(overhead, 4),
        "p90": round(ratios[(len(ratios) * 9) // 10] - 1.0, 4),
    }
    assert overhead < OVERHEAD_BUDGET, (
        f"all-probes telemetry overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget at n={n} (pair spread: {spread})"
    )

    summary = measured["summary"]
    return {
        "pairs": len(ratios),
        "plain": plain,
        "probed": probed,
        "peak_rss_mb": measured["peak_rss_mb"],
        "pair_overhead_spread": spread,
        "overhead_fraction": round(overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "within_budget": True,
        "probe_checks": {
            "kinds": sorted(summary),
            "all_probes_counted_every_request": all(
                s.get("num_requests") == n for s in summary.values()
            ),
            "ratio_upper_bound": summary.get("competitive-ratio", {}).get(
                "ratio_upper_bound"
            ),
            "offline_lower_bound": summary.get("competitive-ratio", {}).get(
                "offline_lower_bound"
            ),
            "opening_rate": summary.get("opening-rate", {}).get("opening_rate"),
        },
    }


def main() -> int:
    import _harness

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", default=None, help="internal: run one case")
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--json", default=None, help="write the result JSON here")
    args = parser.parse_args()
    if args.worker is not None:
        print(json.dumps(worker(args.worker, args.n)))
        return 0
    payload = _harness.envelope(
        "telemetry-overhead",
        command="PYTHONPATH=src python benchmarks/bench_telemetry.py --json BENCH_telemetry.json",
        params={
            "session_spec": SESSION_SPEC,
            "n": args.n,
            "chunk": CHUNK,
            "overhead_budget": OVERHEAD_BUDGET,
        },
        results=run_bench(args.n),
    )
    _harness.emit(payload, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
