"""Micro-benchmarks of the per-request hot paths and offline solvers.

These complement the per-figure experiment benchmarks: they time the kernels a
user pays for when embedding the library — one full online run of each
algorithm on a medium clustered workload, the offline references, and the
vectorized metric row computation the primal–dual algorithm leans on.

Running this file as a script emits a machine-readable perf trajectory::

    PYTHONPATH=src python benchmarks/bench_algorithm_kernels.py --json BENCH_kernels.json

which times every online algorithm at n ∈ {256, 1024, 4096} requests (metric
points scale with n) on both the production (accelerated) hot path and the
reference scans of the test oracle ``tests/oracles.py``, records ns/request
and the accel speedup, and asserts the two total costs are identical while
doing so.  The committed ``BENCH_kernels.json`` lets future PRs diff
per-algorithm per-request cost.
"""

import argparse
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms.base import run_online
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.online.no_prediction import NoPredictionGreedy
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import (
    FotakisOFLAlgorithm,
    MeyersonOFLAlgorithm,
    PerCommodityAlgorithm,
)
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.costs.count_based import PowerCost
from repro.costs.general import PerPointScaledCost
from repro.metric.factories import random_euclidean_metric
from repro.utils.rng import ensure_rng
from repro.workloads.clustered import clustered_workload
from repro.workloads.uniform import uniform_workload

#: Shared medium-sized workload (kept module-level so every kernel sees the
#: exact same instance and the benchmark groups are comparable).
_WORKLOAD = clustered_workload(
    num_requests=120, num_commodities=12, num_clusters=4, rng=2024
)


@pytest.mark.benchmark(group="online-kernels")
def test_pd_omflp_full_run(benchmark):
    result = benchmark.pedantic(
        lambda: run_online(PDOMFLPAlgorithm(), _WORKLOAD.instance), rounds=3, iterations=1
    )
    result.solution.validate(_WORKLOAD.instance.requests)


@pytest.mark.benchmark(group="online-kernels")
def test_rand_omflp_full_run(benchmark):
    result = benchmark.pedantic(
        lambda: run_online(RandOMFLPAlgorithm(), _WORKLOAD.instance, rng=0),
        rounds=3,
        iterations=1,
    )
    result.solution.validate(_WORKLOAD.instance.requests)


@pytest.mark.benchmark(group="online-kernels")
def test_per_commodity_full_run(benchmark):
    result = benchmark.pedantic(
        lambda: run_online(PerCommodityAlgorithm("fotakis"), _WORKLOAD.instance),
        rounds=3,
        iterations=1,
    )
    result.solution.validate(_WORKLOAD.instance.requests)


@pytest.mark.benchmark(group="online-kernels")
def test_no_prediction_full_run(benchmark):
    result = benchmark.pedantic(
        lambda: run_online(NoPredictionGreedy(), _WORKLOAD.instance), rounds=3, iterations=1
    )
    result.solution.validate(_WORKLOAD.instance.requests)


@pytest.mark.benchmark(group="offline-kernels")
def test_offline_greedy_reference(benchmark):
    result = benchmark.pedantic(
        lambda: GreedyOfflineSolver().solve(_WORKLOAD.instance), rounds=3, iterations=1
    )
    result.solution.validate(_WORKLOAD.instance.requests)


@pytest.mark.benchmark(group="metric-kernels")
def test_metric_distance_rows(benchmark):
    metric = random_euclidean_metric(512, rng=7)

    def all_rows():
        total = 0.0
        for point in range(0, metric.num_points, 8):
            total += float(metric.distances_from(point).sum())
        return total

    total = benchmark(all_rows)
    assert total > 0


# ---------------------------------------------------------------------------
# Machine-readable kernel trajectory (BENCH_kernels.json)
# ---------------------------------------------------------------------------
#: Request counts of the trajectory grid; the metric point count scales with n.
SIZE_GRID = (256, 1024, 4096)

#: algorithm key (as in oracles.REFERENCE_ALGORITHMS) -> (production
#: factory, single_commodity, max_n).  The primal–dual reference scans re-sum
#: the whole bid history, O(history x n) per request (production keeps a
#: running sum instead), so their grid is capped to keep the script's runtime
#: sane.
_KERNELS = {
    "meyerson-ofl": (MeyersonOFLAlgorithm, True, max(SIZE_GRID)),
    "per-commodity-meyerson": (
        lambda: PerCommodityAlgorithm("meyerson"),
        False,
        max(SIZE_GRID),
    ),
    "rand-omflp": (RandOMFLPAlgorithm, False, max(SIZE_GRID)),
    "fotakis-ofl": (FotakisOFLAlgorithm, True, 1024),
    "per-commodity-fotakis": (lambda: PerCommodityAlgorithm("fotakis"), False, 1024),
    "pd-omflp": (PDOMFLPAlgorithm, False, 1024),
}


def _trajectory_instance(n: int, *, single_commodity: bool):
    # Per-point scaled opening costs: a uniform PowerCost collapses to a
    # single power-of-two cost class, which trivializes the Meyerson-family
    # class machinery; real deployments have heterogeneous site costs, and
    # the scaled variant exercises the multi-class hot path the accel layer
    # (and the paper's Section 4.1 rounding) is about.
    scales = ensure_rng(1234).uniform(0.5, 8.0, size=n)
    if single_commodity:
        return uniform_workload(
            num_requests=n,
            num_commodities=1,
            num_points=n,
            cost_function=PerPointScaledCost(PowerCost(1, 1.0, scale=0.5), scales),
            rng=2024,
        ).instance
    clusters = 8
    return clustered_workload(
        num_requests=n,
        num_commodities=8,
        num_clusters=clusters,
        points_per_cluster=n // clusters,
        cost_function=PerPointScaledCost(PowerCost(8, 1.0, scale=0.5), scales),
        rng=2024,
    ).instance


def _timed_run(run):
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    return elapsed, result.total_cost


def collect_kernel_trajectory(sizes=SIZE_GRID, *, verbose: bool = True):
    """Time every kernel at every grid size on production and the oracle."""
    # The reference scans live with the tests (tests/ is not a package).
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from oracles import run_reference

    rows = []
    for name, (factory, single_commodity, max_n) in _KERNELS.items():
        for n in sizes:
            if n > max_n:
                continue
            instance = _trajectory_instance(n, single_commodity=single_commodity)
            accel_seconds, accel_cost = _timed_run(
                lambda: run_online(factory(), instance, rng=0, validate=False)
            )
            reference_seconds, reference_cost = _timed_run(
                lambda: run_reference(name, instance, rng=0, validate=False)
            )
            assert accel_cost == reference_cost, (
                f"{name} n={n}: accel/reference cost mismatch "
                f"({accel_cost} != {reference_cost})"
            )
            row = {
                "algorithm": name,
                "n": n,
                "num_points": instance.num_points,
                "num_commodities": instance.num_commodities,
                "ns_per_request_accel": accel_seconds / n * 1e9,
                "ns_per_request_reference": reference_seconds / n * 1e9,
                "speedup": reference_seconds / accel_seconds,
                "total_cost": accel_cost,
            }
            rows.append(row)
            if verbose:
                print(
                    f"{name:24s} n={n:5d}  accel {row['ns_per_request_accel']:12.0f} ns/req  "
                    f"reference {row['ns_per_request_reference']:12.0f} ns/req  "
                    f"speedup {row['speedup']:6.2f}x"
                )
    return rows


def main(argv=None) -> None:
    import _harness

    parser = argparse.ArgumentParser(description="Emit the kernel perf trajectory")
    parser.add_argument("--json", default="BENCH_kernels.json", help="output path")
    parser.add_argument(
        "--sizes",
        default=",".join(str(n) for n in SIZE_GRID),
        help="comma-separated request counts (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    rows = collect_kernel_trajectory(sizes)
    payload = _harness.envelope(
        "algorithm-kernels",
        command="PYTHONPATH=src python benchmarks/bench_algorithm_kernels.py --json BENCH_kernels.json",
        params={"sizes": list(sizes), "unit": "ns/request"},
        results={"kernels": rows},
    )
    _harness.emit(payload, args.json)


if __name__ == "__main__":
    main()
