"""The compositional streaming scenario engine.

Scenarios are declarative, seedable descriptions of whole streaming
experiment inputs — environment plus arrival process — that compose through
combinators and run in bounded memory (see :mod:`repro.scenarios.base` for
the contracts).  Importing this package registers every stock kind on
:data:`SCENARIOS`:

==================  =========================================================
primitive           ``uniform``, ``clustered``, ``zipf``, ``service-network``
                    (the only generators of these families; the eager
                    ``repro.workloads`` builders draw from them),
                    ``burst``, ``drift``
adversarial         ``single-point`` (Theorem 2), ``fotakis-line``
                    (Corollary 3 stress family), ``adaptive`` (feedback)
replay              ``replay`` (re-emit a recorded trace)
combinators         ``mixture``, ``concat``, ``interleave``, ``permute``,
                    ``arrival-order``, ``commodity-overlay``
==================  =========================================================

Quickstart
----------
>>> from repro.scenarios import scenario_from_dict
>>> scenario = scenario_from_dict(
...     {"kind": "mixture", "children": [
...         {"kind": "zipf", "num_requests": 40, "num_commodities": 8},
...         {"kind": "burst", "num_requests": 20, "num_commodities": 8}]})
>>> stream = scenario.open(seed=0)
>>> sum(len(batch) for batch in stream.batches(16))
60
"""

from repro.scenarios.base import (
    SCENARIOS,
    Scenario,
    ScenarioEnvironment,
    ScenarioRequest,
    ScenarioStream,
    register_scenario,
    scenario_from_dict,
)

# Importing the kind modules registers every stock scenario.
from repro.scenarios import adversarial as _adversarial  # noqa: F401
from repro.scenarios import combinators as _combinators  # noqa: F401
from repro.scenarios import generators as _generators  # noqa: F401
from repro.scenarios import replay as _replay  # noqa: F401
from repro.scenarios.adversarial import (
    AdaptiveScenario,
    FotakisLineScenario,
    SinglePointScenario,
)
from repro.scenarios.catalog import EXAMPLE_SPECS, catalog
from repro.scenarios.combinators import (
    ArrivalOrderScenario,
    CommodityOverlayScenario,
    ConcatScenario,
    InterleaveScenario,
    MixtureScenario,
    PermuteScenario,
)
from repro.scenarios.generators import (
    BurstScenario,
    ClusteredScenario,
    DriftScenario,
    ServiceNetworkScenario,
    UniformScenario,
    ZipfScenario,
)
from repro.scenarios.replay import ReplayScenario
from repro.scenarios.run import (
    ScenarioSession,
    derive_session_seeds,
    run_spec_streamed,
    scenario_session_components,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioEnvironment",
    "ScenarioRequest",
    "ScenarioStream",
    "register_scenario",
    "scenario_from_dict",
    "EXAMPLE_SPECS",
    "catalog",
    "UniformScenario",
    "ClusteredScenario",
    "ZipfScenario",
    "ServiceNetworkScenario",
    "BurstScenario",
    "DriftScenario",
    "SinglePointScenario",
    "FotakisLineScenario",
    "AdaptiveScenario",
    "ReplayScenario",
    "MixtureScenario",
    "ConcatScenario",
    "InterleaveScenario",
    "PermuteScenario",
    "ArrivalOrderScenario",
    "CommodityOverlayScenario",
    "ScenarioSession",
    "derive_session_seeds",
    "run_spec_streamed",
    "scenario_session_components",
]
