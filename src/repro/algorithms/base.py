"""Algorithm interfaces and the online run loop.

``run_online`` is the single entry point used by tests, examples and the
experiment harness: it feeds the requests of an instance one at a time to an
:class:`OnlineAlgorithm`, enforces that each request is assigned before the
next one arrives (decisions are irrevocable, Section 1.1 of the paper) and
returns an :class:`OnlineResult` with the final solution and cost breakdown.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.solution import CostBreakdown, Solution
from repro.core.state import OnlineState
from repro.core.trace import Trace
from repro.dual.variables import DualVariableStore
from repro.exceptions import SnapshotError
from repro.utils.rng import RandomState

__all__ = ["OnlineAlgorithm", "OnlineResult", "OfflineSolver", "OfflineResult", "run_online"]


class OnlineAlgorithm(abc.ABC):
    """An online algorithm for the OMFLP.

    Subclasses implement :meth:`process`; they may also override
    :meth:`prepare` to precompute static data (e.g. the facility cost classes
    of RAND-OMFLP).  Algorithms must be reusable: ``prepare`` is called once
    per run and must reset any per-run state.
    """

    #: Human-readable name used in experiment tables.
    name: str = "online-algorithm"

    #: Whether the algorithm uses randomness (experiments average over seeds).
    randomized: bool = False

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        """Hook called once before the first request arrives."""

    @abc.abstractmethod
    def process(self, request: Request, state: OnlineState, rng) -> None:
        """Handle one arriving request.

        Implementations must open any facilities they need via
        ``state.open_facility`` and finish by recording an assignment for the
        request (``state.record_assignment`` or a helper that calls it).
        """

    def duals(self) -> Optional[DualVariableStore]:
        """Dual variables raised by the run, when the algorithm maintains them."""
        return None

    # ------------------------------------------------------------------
    # Snapshot hooks (durable sessions, see repro.service)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot of the algorithm's *per-run mutable* state.

        The contract mirrors the torch idiom: ``state_dict`` captures exactly
        the decision-relevant state accumulated since :meth:`prepare` (dual
        stores, bid histories; never a copy of the state's facilities) and
        :meth:`load_state_dict` restores it onto a freshly ``prepare``-d
        instance such that every subsequent :meth:`process` call — given the
        same restored RNG stream and :class:`OnlineState` — is bit-identical
        to an uninterrupted run.  Static precomputations (cost classes,
        distance tables, memo caches) are *not* captured; they are pure
        functions of the instance and are rebuilt by ``prepare`` or lazily.

        Stateless algorithms inherit this default, which returns ``{}``.
        """
        return {}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this algorithm.

        Must be called after :meth:`prepare` ran against an equivalent
        instance, and before any :meth:`process` call.  The default accepts
        only the empty snapshot of a stateless algorithm: anything but a JSON
        object, or an object with keys, raises :class:`SnapshotError`.
        """
        if not isinstance(state, Mapping):
            raise SnapshotError(
                f"{self.name} state must be a JSON object, got {type(state).__name__}"
            )
        if state:
            raise SnapshotError(
                f"{self.name} is stateless and cannot load a non-empty "
                f"snapshot state (got keys {sorted(state)})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class OnlineResult:
    """Outcome of one online run."""

    algorithm: str
    instance_name: str
    solution: Solution
    opening_cost: float
    connection_cost: float
    breakdown: CostBreakdown
    runtime_seconds: float
    trace: Trace
    duals: Optional[DualVariableStore] = None

    @property
    def total_cost(self) -> float:
        return self.opening_cost + self.connection_cost

    def summary(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "instance": self.instance_name,
            "total_cost": self.total_cost,
            "opening_cost": self.opening_cost,
            "connection_cost": self.connection_cost,
            "opening_small": self.breakdown.opening_small,
            "opening_large": self.breakdown.opening_large,
            "num_facilities": self.solution.num_facilities(),
            "num_large_facilities": self.solution.num_large_facilities(),
            "runtime_seconds": self.runtime_seconds,
        }


def run_online(
    algorithm: OnlineAlgorithm,
    instance: Instance,
    *,
    rng: RandomState = None,
    trace: bool = False,
    validate: bool = True,
) -> OnlineResult:
    """Run an online algorithm over the request sequence of ``instance``.

    This is the batch shim over the streaming
    :class:`repro.api.session.OnlineSession`: the materialized sequence is fed
    through a session one request at a time, so batch and streaming execution
    share one code path and produce bit-identical costs for the same seed.
    """
    # Imported lazily: repro.api.session depends on this module for the
    # OnlineAlgorithm / OnlineResult types.
    from repro.api.session import OnlineSession

    session = OnlineSession(
        algorithm,
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=rng,
        trace=trace,
        validate=validate,
        name=instance.name,
        # Algorithms that inspect instance.requests (known-horizon baselines)
        # must see the caller's full instance, exactly as before the shim.
        instance=instance,
    )
    for request in instance.requests:
        session.submit(request.point, request.commodities)
    record = session.finalize()
    return record.source


class OfflineSolver(abc.ABC):
    """An offline solver producing a (reference) solution for a whole instance."""

    name: str = "offline-solver"

    @abc.abstractmethod
    def solve(self, instance: Instance) -> "OfflineResult":
        """Solve the instance and return the resulting solution and costs."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class OfflineResult:
    """Outcome of one offline solve."""

    solver: str
    instance_name: str
    solution: Solution
    total_cost: float
    opening_cost: float
    connection_cost: float
    runtime_seconds: float
    is_optimal: bool = False
    lower_bound: Optional[float] = None

    def summary(self) -> Dict[str, object]:
        return {
            "solver": self.solver,
            "instance": self.instance_name,
            "total_cost": self.total_cost,
            "opening_cost": self.opening_cost,
            "connection_cost": self.connection_cost,
            "num_facilities": self.solution.num_facilities(),
            "is_optimal": self.is_optimal,
            "runtime_seconds": self.runtime_seconds,
        }
