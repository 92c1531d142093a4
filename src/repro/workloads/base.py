"""Common container for generated workloads, and the eager draw of a scenario."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

from repro.algorithms.offline.planted import PlantedSolver
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.costs.base import FacilityCostFunction
from repro.exceptions import InvalidInstanceError, ScenarioError
from repro.utils.rng import RandomState, ensure_rng

if TYPE_CHECKING:
    import numpy as np

    from repro.scenarios.base import Scenario, ScenarioEnvironment, ScenarioStream

__all__ = ["GeneratedWorkload", "draw_workload"]


@dataclass
class GeneratedWorkload:
    """An instance plus the generator's side information.

    Attributes
    ----------
    instance:
        The generated OMFLP instance.
    planted_specs:
        Optional list of ``(point, configuration)`` facilities that the
        generator considers a good offline solution (clustered workloads plant
        one facility per cluster).  ``planted_solver()`` wraps them into an
        offline reference.
    metadata:
        Free-form generator parameters recorded for experiment tables.
    """

    instance: Instance
    planted_specs: Optional[List[Tuple[int, FrozenSet[int]]]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_stream(
        cls, stream: "ScenarioStream", count: int, metadata: Dict[str, object]
    ) -> "GeneratedWorkload":
        """Take ``count`` requests from ``stream`` into an instance over its environment."""
        items = stream.take(count)
        if not items:
            raise ScenarioError(f"scenario {stream.scenario.kind!r} emitted no requests")
        env = stream.environment
        instance = Instance(
            env.metric,
            env.cost,
            RequestSequence.from_tuples(items),
            commodities=env.commodities,
            name=env.name,
        )
        return cls(instance=instance, planted_specs=env.planted_specs, metadata=metadata)

    def planted_solver(self) -> Optional[PlantedSolver]:
        """Offline reference solver evaluating the planted facilities, if any."""
        if not self.planted_specs:
            return None
        return PlantedSolver(self.planted_specs)

    def describe(self) -> Dict[str, object]:
        info = dict(self.instance.describe())
        info.update(self.metadata)
        info["has_planted_solution"] = bool(self.planted_specs)
        return info


def _draw_environment(
    kind: str,
    rng: RandomState,
    cost_function: Optional[FacilityCostFunction],
    params: Dict[str, Any],
) -> Tuple["Scenario", "ScenarioEnvironment", Dict[str, Any], "np.random.Generator"]:
    """The first step of :func:`draw_workload`: the environment, drawn from ``rng``.

    Returns ``(scenario, environment, aux, generator)``, the generator
    standing just after the environment's draws.  Snapshot restore stops
    here: a reloaded session needs the metric, the cost and the commodities,
    never the requests.
    """
    # Imported here: repro.scenarios imports the API layer, which imports
    # this package.
    from repro.scenarios import SCENARIOS

    try:
        scenario = SCENARIOS.build(kind, **params)
    except ScenarioError as exc:
        raise InvalidInstanceError(str(exc)) from exc
    generator = ensure_rng(rng)
    environment, aux = scenario._build_environment(generator)
    if cost_function is not None:
        if cost_function.num_commodities != environment.num_commodities:
            raise InvalidInstanceError(
                "cost_function.num_commodities must equal num_commodities"
            )
        environment.cost = cost_function
    return scenario, environment, aux, generator


def draw_workload(
    kind: str,
    *,
    rng: RandomState,
    cost_function: Optional[FacilityCostFunction] = None,
    **params: Any,
) -> GeneratedWorkload:
    """Realize the scenario ``kind(**params)`` eagerly, drawing everything from ``rng``.

    The environment is drawn first and the ``num_requests`` arrivals follow
    from the same generator, so a caller's generator ends exactly where the
    draws end and can be handed on.  (:meth:`Scenario.open` instead gives the
    environment and the arrivals separate child seeds.)  ``cost_function``
    replaces the environment's cost and draws nothing.  Invalid parameters
    raise :class:`~repro.exceptions.InvalidInstanceError`.
    """
    scenario, environment, aux, generator = _draw_environment(
        kind, rng, cost_function, params
    )
    return GeneratedWorkload.from_stream(
        scenario._stream(environment, aux, generator),
        scenario.length,
        {"workload": kind, **scenario.params()},
    )
