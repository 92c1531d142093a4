"""Adversarial streaming scenarios lifted from the lower-bound constructions.

Three stress families re-expressed as scenarios so they compose with the
combinators and run through the same streaming engine as every benign
workload:

* :class:`SinglePointScenario` — the Theorem-2 game
  (:mod:`repro.lowerbound.single_point`): a uniformly random ``√|S|``-subset
  requested one commodity at a time on a single point, with the paper's
  ``⌈|σ|/√|S|⌉`` adversary cost, repeatable for ``rounds`` independent games;
* :class:`FotakisLineScenario` — the nested-interval line stress family of
  Corollary 3 (:mod:`repro.lowerbound.fotakis_line`), made *oblivious*: the
  phase batches grow geometrically exactly as in the game runner, but the
  interval descends into a uniformly random half instead of reacting to the
  algorithm (the adaptive reaction needs the game runner; a scenario is an
  algorithm-independent stream);
* :class:`AdaptiveScenario` — a feedback-driven cost-seeking adversary: via
  the :meth:`~repro.scenarios.base.ScenarioStream.observe` hook it watches
  each :class:`~repro.api.session.AssignmentEvent` and concentrates new
  arrivals on the points where the algorithm has been paying the highest
  average connection cost.  Without feedback it degrades to uniform
  exploration — which is exactly what keeps ``stream == realize`` for the
  determinism harness.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.commodities import CommodityUniverse
from repro.costs.count_based import AdversaryCost, ConstantCost
from repro.lowerbound.fotakis_line import line_game_parameters
from repro.metric.line import LineMetric
from repro.metric.single_point import SinglePointMetric
from repro.scenarios.base import (
    Scenario,
    ScenarioEnvironment,
    ScenarioRequest,
    ScenarioStream,
    check_count,
    check_fraction,
    check_non_negative,
    check_optional_count,
    check_positive,
    param_error,
    register_scenario,
)
from repro.scenarios.generators import _demand_bounds, _demand_size

__all__ = ["SinglePointScenario", "FotakisLineScenario", "AdaptiveScenario"]


# ----------------------------------------------------------------------
# single-point (Theorem 2)
# ----------------------------------------------------------------------
@register_scenario("single-point")
class SinglePointScenario(Scenario):
    """The Theorem-2 single-point adversary as a stream.

    Each round draws a fresh uniformly random subset ``S' ⊂ S`` of size
    ``subset_size`` (default ``⌊√|S|⌋``) and requests its commodities one at
    a time in random order at the unique point; the cost function is the
    Theorem-2 adversary cost ``⌈|σ|/√|S|⌉``, so the round's optimum is one
    facility of cost 1.
    """

    def __init__(
        self,
        *,
        num_commodities: int,
        subset_size: Optional[int] = None,
        rounds: int = 1,
    ) -> None:
        self.num_commodities = check_count(self.kind, "num_commodities", num_commodities)
        default_size = max(int(math.isqrt(self.num_commodities)), 1)
        self.subset_size = (
            default_size
            if subset_size is None
            else check_count(self.kind, "subset_size", subset_size)
        )
        if self.subset_size > self.num_commodities:
            raise param_error(
                self.kind,
                "subset_size",
                f"must lie in [1, {self.num_commodities}], got {self.subset_size}",
            )
        self.rounds = check_count(self.kind, "rounds", rounds)

    def params(self) -> Dict[str, Any]:
        return {
            "num_commodities": self.num_commodities,
            "subset_size": self.subset_size,
            "rounds": self.rounds,
        }

    @property
    def length(self) -> Optional[int]:
        return self.subset_size * self.rounds

    def shape(self) -> Optional[Tuple[int, int]]:
        return 1, self.num_commodities

    def _build_environment(self, rng):
        env = ScenarioEnvironment(
            SinglePointMetric(),
            AdversaryCost(self.num_commodities),
            CommodityUniverse(self.num_commodities),
            name=f"single-point(|S|={self.num_commodities},rounds={self.rounds})",
        )
        return env, {}

    def _stream(self, environment, aux, rng):
        return _SinglePointStream(self, environment, rng)


class _SinglePointStream(ScenarioStream):
    def __init__(self, scenario, environment, rng):
        super().__init__(scenario, environment, rng)
        self._pending: List[int] = []
        self._rounds_done = 0

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: SinglePointScenario = self._scenario
        if not self._pending:
            if self._rounds_done >= scenario.rounds:
                return None
            subset = self._rng.choice(
                scenario.num_commodities, size=scenario.subset_size, replace=False
            )
            order = self._rng.permutation(scenario.subset_size)
            self._pending = [int(subset[i]) for i in order]
            self._rounds_done += 1
        commodity = self._pending.pop(0)
        return 0, frozenset((commodity,))

    def _extra_state(self) -> Dict[str, Any]:
        return {"pending": list(self._pending), "rounds_done": self._rounds_done}

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        self._pending = [int(e) for e in extra["pending"]]
        self._rounds_done = int(extra["rounds_done"])


# ----------------------------------------------------------------------
# fotakis-line (Corollary 3 stress family)
# ----------------------------------------------------------------------
@register_scenario("fotakis-line")
class FotakisLineScenario(Scenario):
    """Oblivious nested-interval line stress in the spirit of Fotakis' bound.

    Phase ``i`` places ``growth^i`` identical single-commodity requests at
    the centre of the current interval (``growth ≈ log n`` as in
    :func:`repro.lowerbound.fotakis_line.line_game_parameters`), then recurses
    into a uniformly random half — so the stream keeps revealing new
    accumulation points while old ones go quiet.
    """

    def __init__(
        self,
        *,
        num_requests: int,
        facility_cost: float = 1.0,
        grid_resolution: Optional[int] = None,
    ) -> None:
        self.num_requests = check_count(self.kind, "num_requests", num_requests, minimum=2)
        self.facility_cost = check_positive(self.kind, "facility_cost", facility_cost)
        self.grid_resolution = check_optional_count(
            self.kind, "grid_resolution", grid_resolution, minimum=2
        )
        self._phases, self._growth = line_game_parameters(self.num_requests)

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "facility_cost": self.facility_cost,
            "grid_resolution": self.grid_resolution,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def _resolution(self) -> int:
        return (
            self.grid_resolution
            if self.grid_resolution is not None
            else 2 ** (self._phases + 2)
        )

    def shape(self) -> Optional[Tuple[int, int]]:
        return self._resolution() + 1, 1

    def _build_environment(self, rng):
        coordinates = np.linspace(0.0, 1.0, self._resolution() + 1)
        env = ScenarioEnvironment(
            LineMetric(coordinates),
            ConstantCost(1, scale=self.facility_cost),
            CommodityUniverse(1),
            name=f"fotakis-line(n={self.num_requests})",
        )
        return env, {"coordinates": coordinates}

    def _stream(self, environment, aux, rng):
        return _FotakisLineStream(self, environment, rng, aux)


class _FotakisLineStream(ScenarioStream):
    def __init__(self, scenario, environment, rng, aux):
        super().__init__(scenario, environment, rng)
        self._coordinates: np.ndarray = aux["coordinates"]
        self._lo = 0.0
        self._hi = 1.0
        self._phase = 0
        self._emitted_in_phase = 0

    def _nearest_grid_point(self, x: float) -> int:
        return int(np.argmin(np.abs(self._coordinates - x)))

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: FotakisLineScenario = self._scenario
        centre = 0.5 * (self._lo + self._hi)
        point = self._nearest_grid_point(centre)
        self._emitted_in_phase += 1
        # Once the phase batch is full, descend into a uniformly random half.
        if self._emitted_in_phase >= scenario._growth**self._phase:
            if self._rng.random() < 0.5:
                self._hi = centre
            else:
                self._lo = centre
            self._phase += 1
            self._emitted_in_phase = 0
        return point, frozenset((0,))

    def _extra_state(self) -> Dict[str, Any]:
        return {
            "lo": self._lo,
            "hi": self._hi,
            "phase": self._phase,
            "emitted_in_phase": self._emitted_in_phase,
        }

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        self._lo = float(extra["lo"])
        self._hi = float(extra["hi"])
        self._phase = int(extra["phase"])
        self._emitted_in_phase = int(extra["emitted_in_phase"])


# ----------------------------------------------------------------------
# adaptive (feedback-driven)
# ----------------------------------------------------------------------
@register_scenario("adaptive")
class AdaptiveScenario(Scenario):
    """Cost-seeking adaptive adversary driven by session feedback.

    When streamed through a :class:`~repro.scenarios.run.ScenarioSession`,
    every :class:`~repro.api.session.AssignmentEvent` is fed back through
    :meth:`~repro.scenarios.base.ScenarioStream.observe`; with probability
    ``1 - exploration`` the next request is placed on the point with the
    highest observed average connection cost (where the algorithm's facility
    set serves worst), otherwise on a uniform point.  Without feedback the
    cost table stays empty and the stream is plain uniform exploration.
    """

    def __init__(
        self,
        *,
        num_requests: Optional[int] = None,
        num_commodities: int,
        num_points: int = 64,
        exploration: float = 0.25,
        min_demand: int = 1,
        max_demand: Optional[int] = None,
        cost_exponent_x: float = 1.0,
    ) -> None:
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self.num_commodities = check_count(self.kind, "num_commodities", num_commodities)
        self.num_points = check_count(self.kind, "num_points", num_points)
        self.exploration = check_fraction(self.kind, "exploration", exploration)
        self.cost_exponent_x = check_non_negative(
            self.kind, "cost_exponent_x", cost_exponent_x
        )
        self.min_demand, self.max_demand = _demand_bounds(
            self.kind,
            self.num_commodities,
            check_count(self.kind, "min_demand", min_demand),
            check_optional_count(self.kind, "max_demand", max_demand),
        )

    def params(self) -> Dict[str, Any]:
        return {
            "num_requests": self.num_requests,
            "num_commodities": self.num_commodities,
            "num_points": self.num_points,
            "exploration": self.exploration,
            "min_demand": self.min_demand,
            "max_demand": self.max_demand,
            "cost_exponent_x": self.cost_exponent_x,
        }

    @property
    def length(self) -> Optional[int]:
        return self.num_requests

    def shape(self) -> Optional[Tuple[int, int]]:
        return self.num_points, self.num_commodities

    def _build_environment(self, rng):
        from repro.metric.factories import random_euclidean_metric
        from repro.costs.count_based import PowerCost

        metric = random_euclidean_metric(self.num_points, rng=rng)
        cost = PowerCost(self.num_commodities, self.cost_exponent_x)
        env = ScenarioEnvironment(
            metric,
            cost,
            CommodityUniverse(self.num_commodities),
            name=f"adaptive(n={self.num_requests},S={self.num_commodities})",
        )
        return env, {}

    def _stream(self, environment, aux, rng):
        return _AdaptiveStream(self, environment, rng)


class _AdaptiveStream(ScenarioStream):
    def __init__(self, scenario, environment, rng):
        super().__init__(scenario, environment, rng)
        points = environment.num_points
        self._cost_sum = np.zeros(points, dtype=np.float64)
        self._count = np.zeros(points, dtype=np.int64)

    def observe(self, event: Any) -> None:
        point = getattr(event, "point", None)
        connection = getattr(event, "connection_cost", None)
        if point is None or connection is None:
            return
        self._cost_sum[int(point)] += float(connection)
        self._count[int(point)] += 1

    def _next(self) -> Optional[ScenarioRequest]:
        scenario: AdaptiveScenario = self._scenario
        explore = self._rng.random() < scenario.exploration
        if explore or not np.any(self._count > 0):
            point = int(self._rng.integers(0, self._env.num_points))
        else:
            averages = np.where(
                self._count > 0, self._cost_sum / np.maximum(self._count, 1), -np.inf
            )
            point = int(np.argmax(averages))
        size = _demand_size(self._rng, scenario.min_demand, scenario.max_demand)
        demand = self._env.commodities.sample_subset(size, rng=self._rng)
        return point, demand

    def _extra_state(self) -> Dict[str, Any]:
        return {
            "cost_sum": [float(c) for c in self._cost_sum],
            "count": [int(c) for c in self._count],
        }

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        self._cost_sum = np.asarray(extra["cost_sum"], dtype=np.float64)
        self._count = np.asarray(extra["count"], dtype=np.int64)
