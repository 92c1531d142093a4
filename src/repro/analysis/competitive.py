"""Competitive-ratio measurement (Definition 1 of the paper).

The competitive ratio compares the online algorithm's cost against the
optimal offline cost.  Exact OPT is only available for tiny instances, so
:func:`reference_cost` assembles the best available reference from the
offline-solver portfolio and records *which* reference was used and whether it
is an upper bound, a lower bound or exact — the experiments propagate that
label into their tables (see DESIGN.md, substitution notes).

For *streaming* sessions, where re-solving an offline reference per arrival is
out of the question, :class:`IncrementalOfflineBound` maintains an LP-free
**lower** bound on the offline optimum of the request prefix at one mask bit
per arrival plus one distance column per anchor; :func:`streaming_lower_bound`
is the batch entry point, a thin shim that feeds a whole instance through the
incremental update (pinned exactly equal by ``tests/test_telemetry.py``).
The telemetry layer's rolling competitive-ratio probe (:mod:`repro.telemetry`)
is built on this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Union

import numpy as np

from repro.algorithms.base import OfflineResult, OnlineAlgorithm, run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.offline.local_search import LocalSearchSolver
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.costs.base import FacilityCostFunction
from repro.exceptions import AlgorithmError, ExperimentError
from repro.metric.base import MetricSpace
from repro.utils.rng import RandomState, ensure_rng
from repro.workloads.base import GeneratedWorkload

__all__ = [
    "CompetitiveMeasurement",
    "IncrementalOfflineBound",
    "measure_competitive_ratio",
    "reference_cost",
    "streaming_lower_bound",
    "ReferenceCost",
]


@dataclass(frozen=True)
class ReferenceCost:
    """An offline reference cost plus its provenance."""

    value: float
    kind: str  # "exact", "upper-bound", "lower-bound", "analytic"
    solver: str

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ExperimentError(f"reference cost must be non-negative, got {self.value}")


@dataclass
class CompetitiveMeasurement:
    """Measured cost of one algorithm on one instance against one reference."""

    algorithm: str
    instance: str
    reference: ReferenceCost
    costs: List[float] = field(default_factory=list)
    runtimes: List[float] = field(default_factory=list)

    @property
    def mean_cost(self) -> float:
        return float(np.mean(self.costs)) if self.costs else float("nan")

    @property
    def std_cost(self) -> float:
        return float(np.std(self.costs)) if self.costs else float("nan")

    @property
    def ratio(self) -> float:
        if self.reference.value <= 0:
            return float("inf")
        return self.mean_cost / self.reference.value

    @property
    def mean_runtime(self) -> float:
        return float(np.mean(self.runtimes)) if self.runtimes else float("nan")

    def as_row(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "instance": self.instance,
            "cost": self.mean_cost,
            "cost_std": self.std_cost,
            "reference_cost": self.reference.value,
            "reference_kind": self.reference.kind,
            "ratio": self.ratio,
            "runtime_s": self.mean_runtime,
        }


def reference_cost(
    workload_or_instance: Union[GeneratedWorkload, Instance],
    *,
    exact_limit_combinations: int = 50_000,
    local_search_iterations: int = 15,
    known_opt: Optional[float] = None,
) -> ReferenceCost:
    """Best available offline reference for an instance.

    Preference order: an analytically known OPT (``known_opt``), exact brute
    force when the search space is small enough, otherwise the cheaper of the
    planted solution (when the workload provides one), offline greedy and
    local search — all upper bounds on OPT, so ratios computed against them
    over-estimate the competitive ratio.
    """
    if known_opt is not None:
        return ReferenceCost(value=float(known_opt), kind="analytic", solver="known")
    if isinstance(workload_or_instance, GeneratedWorkload):
        workload: Optional[GeneratedWorkload] = workload_or_instance
        instance = workload_or_instance.instance
    else:
        workload = None
        instance = workload_or_instance

    # Exact brute force when affordable.
    try:
        exact = BruteForceSolver(max_combinations=exact_limit_combinations).solve(instance)
        return ReferenceCost(value=exact.total_cost, kind="exact", solver=exact.solver)
    except AlgorithmError:
        pass

    candidates: List[OfflineResult] = []
    if workload is not None:
        planted = workload.planted_solver()
        if planted is not None:
            candidates.append(planted.solve(instance))
    candidates.append(GreedyOfflineSolver().solve(instance))
    if local_search_iterations > 0:
        initial = None
        if candidates:
            best_so_far = min(candidates, key=lambda r: r.total_cost)
            initial = [(f.point, f.configuration) for f in best_so_far.solution.facilities]
        candidates.append(
            LocalSearchSolver(
                max_iterations=local_search_iterations, initial_specs=initial
            ).solve(instance)
        )
    best = min(candidates, key=lambda r: r.total_cost)
    return ReferenceCost(value=best.total_cost, kind="upper-bound", solver=best.solver)


class _Arrival(NamedTuple):
    """A raw ``(point, commodities)`` pair, as :meth:`IncrementalOfflineBound.update_many`
    reads it."""

    point: int
    commodities: Iterable[int]


BOUND_STATE_FORMAT = "repro.analysis.offline-bound"
BOUND_STATE_VERSION = 1


class IncrementalOfflineBound:
    """LP-free lower bound on offline OPT of a request prefix, updated per arrival.

    The bound is a streaming form of the classic ball-packing argument.  For
    each commodity ``e`` it lazily computes the cheapest singleton opening
    cost ``f_e = min_m f^{{e}}_m`` (one vectorized scan on first sight of
    ``e``) and maintains a greedy set of *anchors*: request points demanding
    ``e`` that are pairwise more than ``2·f_e`` apart.  The balls of radius
    ``f_e`` around anchors are then disjoint, so any offline solution pays at
    least ``f_e`` per anchor — either a connection of length ≥ ``f_e`` or an
    opening of a facility whose configuration contains ``e`` (cost ≥ ``f_e``
    whenever the cost function is monotone in the configuration, which every
    stock cost satisfies) inside the anchor's exclusive ball.  The overall
    bound is ``max_e k_e·f_e`` with ``k_e`` the anchor count: a *max*, not a
    sum, because one facility opening can be charged by several commodities.

    An arrival costs one bit read per demanded commodity, and an accepted
    anchor one distance column.  The accept/reject decision for a
    ``(commodity, point)`` pair is *time-invariant*: anchors only grow, so a
    rejected point stays rejected, and an accepted point becomes an anchor
    and rejects its own repeats.  So each commodity keeps a *coverage mask*,
    one byte per metric point, set where an arrival demanding ``e`` would be
    rejected: points within ``2·f_e`` of an anchor (accepting anchor ``a``
    ORs in the column ``metric.distances_to(a) <= 2·f_e``) and points already
    decided.  ``distances_to(a)[p]`` is bit-equal to ``distances_from(p)[a]``
    by the metric contract, and ``min(d) <= x`` exactly when
    ``any(d <= x)``, so the mask decides exactly as the per-arrival minimum
    over the anchors would; ``tests/oracles.py`` keeps that minimum as the
    reference bound, pinned with ``==``.  The mask is derived data: it is
    never serialized, and after :meth:`load_state_dict` each commodity's mask
    is rebuilt from its anchors (one column each) on its first arrival.
    This is what makes the telemetry layer's rolling competitive-ratio probe
    affordable per arrival.  The bound is monotone non-decreasing in the
    prefix and deterministic (no RNG involved).

    State round-trips losslessly through :meth:`state_dict` /
    :meth:`load_state_dict` (strict JSON), so snapshots carry it
    bit-identically.
    """

    def __init__(
        self,
        metric: MetricSpace,
        cost: FacilityCostFunction,
        *,
        anchor_cap: int = 256,
    ) -> None:
        if anchor_cap < 1:
            raise ExperimentError(f"anchor_cap must be at least 1, got {anchor_cap}")
        self._metric = metric
        self._cost = cost
        self._anchor_cap = int(anchor_cap)
        self._singleton_costs: Dict[int, float] = {}
        self._anchors: Dict[int, List[int]] = {}
        # Per-commodity coverage masks (see class docstring); derived from
        # the anchors, never serialized.
        self._covered: Dict[int, bytearray] = {}
        self._num_requests = 0
        self._bound = 0.0

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Current lower bound on offline OPT of the requests seen so far."""
        return self._bound

    @property
    def num_requests(self) -> int:
        return self._num_requests

    @property
    def anchor_cap(self) -> int:
        return self._anchor_cap

    def _singleton_cost(self, commodity: int) -> float:
        cached = self._singleton_costs.get(commodity)
        if cached is None:
            cached = float(
                np.min(
                    self._cost.costs_over_points(
                        (commodity,), range(self._metric.num_points)
                    )
                )
            )
            self._singleton_costs[commodity] = cached
            self._anchors[commodity] = []
        return cached

    def _coverage(self, commodity: int) -> bytearray:
        """The coverage mask of ``commodity``, built on its first arrival
        (or first after a load) from one column per anchor."""
        f_e = self._singleton_cost(commodity)
        covered = bytearray(self._metric.num_points)
        anchors = self._anchors[commodity]
        if anchors:
            mask = np.frombuffer(covered, dtype=np.bool_)
            for anchor in anchors:
                mask |= self._metric.distances_to(anchor) <= 2.0 * f_e
        self._covered[commodity] = covered
        return covered

    def update(self, request: Request) -> float:
        """Fold one arrival into the bound and return the new bound value."""
        return self.update_many((request,))

    def update_arrival(self, point: int, commodities: Iterable[int]) -> float:
        """:meth:`update` on a raw ``(point, commodities)`` pair."""
        return self.update_many((_Arrival(point, commodities),))

    def update_many(self, arrivals: Iterable[Any]) -> float:
        """Fold a run of arrivals, in order, and return the bound after the last.

        An arrival is anything with ``point`` and ``commodities``
        attributes: a :class:`~repro.core.requests.Request`, or an
        :class:`~repro.api.session.AssignmentEvent` of a session.  The result
        and the state equal :meth:`update` per arrival; the telemetry probe
        folds a whole flush of session events through one call.  A point
        outside the metric raises :class:`ExperimentError`, after the
        arrivals before it have been folded.
        """
        num_points = self._metric.num_points
        masks = self._covered
        anchor_cap = self._anchor_cap
        for arrival in arrivals:
            point = arrival.point
            if not 0 <= point < num_points:
                raise ExperimentError(
                    f"arrival point {point} out of range [0, {num_points})"
                )
            self._num_requests += 1
            # Each commodity owns its own anchor set, singleton cost and
            # mask, so the per-commodity decisions are independent and
            # processing order cannot change the bound (state dicts sort on
            # the way out regardless).
            for commodity in arrival.commodities:
                try:
                    covered = masks[commodity]
                except KeyError:
                    covered = self._coverage(commodity)
                if covered[point]:
                    continue  # time-invariant decision: rejected
                covered[point] = True
                f_e = self._singleton_costs[commodity]
                if f_e <= 0.0:
                    continue  # zero-cost openings make the ball argument vacuous
                anchors = self._anchors[commodity]
                if len(anchors) >= anchor_cap:
                    continue
                anchors.append(int(point))
                mask = np.frombuffer(covered, dtype=np.bool_)
                mask |= self._metric.distances_to(point) <= 2.0 * f_e
                candidate = len(anchors) * f_e
                if candidate > self._bound:
                    self._bound = candidate
        return self._bound

    # ------------------------------------------------------------------
    # Strict-JSON state round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "format": BOUND_STATE_FORMAT,
            "version": BOUND_STATE_VERSION,
            "anchor_cap": self._anchor_cap,
            "num_requests": self._num_requests,
            "bound": self._bound,
            "singleton_costs": {
                str(e): self._singleton_costs[e] for e in sorted(self._singleton_costs)
            },
            "anchors": {
                str(e): list(self._anchors[e]) for e in sorted(self._anchors)
            },
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if state.get("format") != BOUND_STATE_FORMAT:
            raise ExperimentError(
                f"not an offline-bound state dict: format={state.get('format')!r}"
            )
        if state.get("version") != BOUND_STATE_VERSION:
            raise ExperimentError(
                f"unsupported offline-bound state version {state.get('version')!r}"
            )
        self._anchor_cap = int(state["anchor_cap"])
        self._num_requests = int(state["num_requests"])
        self._bound = float(state["bound"])
        self._singleton_costs = {
            int(e): float(v) for e, v in state["singleton_costs"].items()
        }
        self._anchors = {
            int(e): [int(p) for p in points] for e, points in state["anchors"].items()
        }
        self._covered = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalOfflineBound(bound={self._bound:.4f}, "
            f"num_requests={self._num_requests})"
        )


def streaming_lower_bound(
    instance: Instance, *, anchor_cap: int = 256
) -> ReferenceCost:
    """Batch entry point for the streaming lower bound.

    A thin shim over :class:`IncrementalOfflineBound` — it feeds the whole
    request sequence through :meth:`~IncrementalOfflineBound.update` and wraps
    the final value.  By construction the result is *exactly* equal to the
    rolling bound a streaming session reports at finalize (pinned with ``==``
    in ``tests/test_telemetry.py``).
    """
    bound = IncrementalOfflineBound(
        instance.metric, instance.cost_function, anchor_cap=anchor_cap
    )
    value = 0.0
    for request in instance.requests:
        value = bound.update(request)
    return ReferenceCost(value=value, kind="lower-bound", solver="streaming-anchors")


def measure_competitive_ratio(
    algorithm: OnlineAlgorithm,
    workload_or_instance: Union[GeneratedWorkload, Instance],
    *,
    reference: Optional[ReferenceCost] = None,
    repeats: Optional[int] = None,
    rng: RandomState = None,
    known_opt: Optional[float] = None,
) -> CompetitiveMeasurement:
    """Run ``algorithm`` (repeatedly if randomized) and compare to the reference."""
    instance = (
        workload_or_instance.instance
        if isinstance(workload_or_instance, GeneratedWorkload)
        else workload_or_instance
    )
    generator = ensure_rng(rng)
    if reference is None:
        reference = reference_cost(workload_or_instance, known_opt=known_opt)
    runs = repeats if repeats is not None else (5 if algorithm.randomized else 1)
    if runs < 1:
        raise ExperimentError("repeats must be at least 1")
    measurement = CompetitiveMeasurement(
        algorithm=algorithm.name, instance=instance.name, reference=reference
    )
    for _ in range(runs):
        result = run_online(algorithm, instance, rng=generator)
        measurement.costs.append(result.total_cost)
        measurement.runtimes.append(result.runtime_seconds)
    return measurement
