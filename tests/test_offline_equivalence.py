"""Offline greedy over arrays == the plain per-candidate loop, bit for bit.

``GreedyOfflineSolver`` computes each round's ratio table from arrays; the
oracle in ``tests/oracles.py`` is the loop it replaced, together with the
assignment DP that asks the metric again for the distances it holds.  Every
comparison here is exact ``==``: the facilities chosen before pruning, the
final facilities and assignments, and the total, opening and connection
costs.
"""

import numpy as np
import pytest

from repro.algorithms.offline.greedy import GreedyOfflineSolver, _connection_costs
from repro.algorithms.offline.local_search import LocalSearchSolver
from repro.exceptions import AlgorithmError, InvalidMetricError
from repro.workloads.clustered import clustered_workload
from repro.workloads.uniform import uniform_workload
from tests.oracles import ReferenceGreedyOfflineSolver, reference_scans

#: Candidate point lists: the request points, a single point, and an
#: unsorted list with repeated points.
CANDIDATE_POINTS = {"default": None, "single": [7], "repeated": [9, 3, 3, 17, 0, 9]}


def _assert_same_result(result, expected):
    assert result.solution.facilities == expected.solution.facilities
    assert [a.facility_of_commodity for a in result.solution.assignments] == [
        a.facility_of_commodity for a in expected.solution.assignments
    ]
    assert (result.total_cost, result.opening_cost, result.connection_cost) == (
        expected.total_cost,
        expected.opening_cost,
        expected.connection_cost,
    )


def _assert_greedy_matches_oracle(instance, candidate_points=None):
    solver = GreedyOfflineSolver(candidate_points=candidate_points)
    reference = ReferenceGreedyOfflineSolver(candidate_points=candidate_points)
    with reference_scans():
        expected_chosen = reference._choose(instance)
        expected = reference.solve(instance)
    assert solver._choose(instance) == expected_chosen
    _assert_same_result(solver.solve(instance), expected)


@pytest.mark.parametrize("seed", range(6))
def test_greedy_matches_oracle_on_clustered(seed):
    instance = clustered_workload(num_requests=300, num_commodities=8, rng=seed).instance
    _assert_greedy_matches_oracle(instance)


@pytest.mark.parametrize("seed", range(6))
def test_greedy_matches_oracle_on_uniform(seed):
    instance = uniform_workload(
        num_requests=120, num_commodities=6, num_points=40, rng=seed
    ).instance
    _assert_greedy_matches_oracle(instance)


@pytest.mark.parametrize("points", sorted(CANDIDATE_POINTS))
@pytest.mark.parametrize("seed", range(100, 106))
def test_greedy_matches_oracle_with_candidate_points(seed, points):
    instance = uniform_workload(
        num_requests=60, num_commodities=4, num_points=30, rng=seed
    ).instance
    _assert_greedy_matches_oracle(instance, CANDIDATE_POINTS[points])


@pytest.mark.parametrize("seed", range(3))
def test_greedy_matches_oracle_reopening_repeated_points(seed):
    """Clustered requests over candidates in several clusters take several
    rounds; seed 2 opens facilities at points 5 and 30 twice each."""
    instance = clustered_workload(num_requests=120, num_commodities=6, rng=seed).instance
    _assert_greedy_matches_oracle(instance, [30, 5, 5, 18, 42, 30, 41, 6])


def test_greedy_matches_oracle_on_the_line(small_instance):
    _assert_greedy_matches_oracle(small_instance)


def test_local_search_from_candidate_points_matches_oracle():
    instance = uniform_workload(num_requests=40, num_commodities=4, num_points=30, rng=100).instance
    solver = LocalSearchSolver(max_iterations=2, candidate_points=CANDIDATE_POINTS["repeated"])
    with reference_scans():
        expected = solver.solve(instance)
    _assert_same_result(solver.solve(instance), expected)


def test_out_of_range_candidate_points_fail_in_the_metric(small_instance):
    for solver in (GreedyOfflineSolver, ReferenceGreedyOfflineSolver):
        with pytest.raises(InvalidMetricError):
            solver(candidate_points=[0, 5]).solve(small_instance)


def test_no_candidate_points_cover_nothing(small_instance):
    for solver in (GreedyOfflineSolver, ReferenceGreedyOfflineSolver):
        with pytest.raises(AlgorithmError, match="could not cover"):
            solver(candidate_points=[]).solve(small_instance)


def _python_column_sums(block):
    sums = []
    for column in block.T.tolist():
        total = 0.0
        for value in column:
            total += value
        sums.append(total)
    return sums


def test_connection_costs_add_rows_left_to_right():
    """One candidate point is a one-column block, which numpy sums pairwise."""
    block = np.array([[1.0]] + [[1e-16]] * 15)
    expected = _python_column_sums(block)
    assert np.sum(block[:, 0]) != expected[0]  # pairwise and sequential differ here
    assert _connection_costs(block).tolist() == expected


def test_connection_costs_match_a_python_loop_per_column():
    rng = np.random.default_rng(0)
    block = rng.random((40, 5)) * 10.0 ** rng.integers(-8, 8, size=(40, 5))
    block[rng.random((40, 5)) < 0.3] = 0.0
    assert _connection_costs(block).tolist() == _python_column_sums(block)
