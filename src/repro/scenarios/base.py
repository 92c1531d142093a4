"""Core abstractions of the compositional streaming scenario engine.

A *scenario* is a declarative, seedable description of a whole streaming
experiment input: the fixed problem environment (metric space, cost function,
commodity universe) plus a — possibly unbounded — arrival process of
``(point, commodities)`` requests.  Scenarios are plain data: every scenario
serializes to a nested ``{"kind": ..., **params}`` dictionary via
:meth:`Scenario.to_dict` and resolves back through :func:`scenario_from_dict`
and the string-keyed :data:`SCENARIOS` registry, so a complete adversarial
mixture fits in a JSON file::

    {"kind": "mixture",
     "weights": [3, 1],
     "children": [
         {"kind": "zipf", "num_requests": 500, "num_commodities": 16},
         {"kind": "burst", "num_requests": 500, "num_commodities": 16}]}

The streaming contract
----------------------
:meth:`Scenario.open` binds a scenario to a seed and returns a
:class:`ScenarioStream` — a bounded-memory iterator that yields requests in
batches of any size.  Three properties are load-bearing (and pinned by
``tests/test_scenarios.py``):

* **batch-size invariance** — requests are drawn one at a time from the
  stream's private generator, so the emitted sequence is bit-identical
  whether the consumer takes batches of 1, 7 or 4096;
* **stream == realize** — :meth:`Scenario.realize` materializes the instance
  by draining a fresh stream, so the eager and streamed paths are exactly the
  same requests (``==`` on every request, not "close");
* **snapshot/resume** — :meth:`ScenarioStream.state_dict` captures the
  generator state and the scenario's own position (burst progress, drift
  centers, combinator child states, ...) as strict JSON;
  :meth:`~ScenarioStream.load_state_dict` on a freshly opened stream resumes
  the arrival process bit-identically, which is how durable sessions
  (:mod:`repro.service`) capture generator position across evictions.

Every scenario draws its environment and its request stream from *separate*
child seeds (:func:`repro.utils.rng.spawn_child_seeds`), so the environment
can be rebuilt deterministically without replaying any part of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.api.registry import Registry
from repro.core.commodities import CommodityUniverse
from repro.costs.base import FacilityCostFunction
from repro.exceptions import ScenarioError
from repro.metric.base import MetricSpace
from repro.utils.rng import (
    RandomState,
    ensure_rng,
    rng_from_state,
    rng_state,
    spawn_child_seeds,
)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioEnvironment",
    "ScenarioRequest",
    "ScenarioStream",
    "register_scenario",
    "scenario_from_dict",
]

#: One emitted arrival: ``(point, commodities)``.
ScenarioRequest = Tuple[int, FrozenSet[int]]

#: Format marker embedded in every stream state dict.
STREAM_STATE_FORMAT = "repro-scenario-stream"

#: All registered scenario kinds.  Strict parameters: a typo'd keyword in a
#: scenario spec raises :class:`~repro.exceptions.ReproError` naming the
#: offending key (same contract as the WORKLOADS registry).
SCENARIOS = Registry("scenario", strict_params=True)


def register_scenario(kind: str) -> Callable[[type], type]:
    """Class decorator: register a :class:`Scenario` subclass under ``kind``."""

    def decorator(cls: type) -> type:
        cls.kind = kind
        SCENARIOS.add(kind, cls)
        return cls

    return decorator


def scenario_from_dict(spec: Any) -> "Scenario":
    """Resolve a nested scenario spec (dict, kind string or live object).

    The inverse of :meth:`Scenario.to_dict`: combinator children are resolved
    recursively by the scenario constructors themselves, so arbitrarily nested
    compositions round-trip through plain JSON.
    """
    if isinstance(spec, Scenario):
        return spec
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, Mapping):
        raise ScenarioError(
            f"scenario specs are {{'kind': ...}} mappings, kind strings or "
            f"Scenario objects; got {type(spec).__name__}"
        )
    if "kind" not in spec:
        raise ScenarioError(f"scenario spec mappings need a 'kind' key, got {dict(spec)!r}")
    params = {str(key): value for key, value in spec.items() if key != "kind"}
    scenario = SCENARIOS.build(str(spec["kind"]), **params)
    if not isinstance(scenario, Scenario):
        raise ScenarioError(
            f"scenario builders must return a Scenario, got {type(scenario).__name__}"
        )
    return scenario


# ----------------------------------------------------------------------
# Parameter validation helpers — every failure names the offending key.
# ----------------------------------------------------------------------
def param_error(kind: str, key: str, message: str) -> ScenarioError:
    return ScenarioError(f"scenario {kind!r}: parameter {key!r} {message}")


def check_count(kind: str, key: str, value: Any, *, minimum: int = 1) -> int:
    """Validate an integer parameter ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise param_error(kind, key, f"must be an integer, got {value!r}")
    if value < minimum:
        raise param_error(kind, key, f"must be >= {minimum}, got {value}")
    return int(value)


def check_optional_count(
    kind: str, key: str, value: Any, *, minimum: int = 1
) -> Optional[int]:
    """Validate ``None`` (unbounded / default) or an integer ``>= minimum``."""
    if value is None:
        return None
    return check_count(kind, key, value, minimum=minimum)


def check_fraction(kind: str, key: str, value: Any) -> float:
    """Validate a probability-like parameter in ``[0, 1]``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        raise param_error(kind, key, f"must be a number in [0, 1], got {value!r}")
    if not 0.0 <= float(value) <= 1.0:
        raise param_error(kind, key, f"must lie in [0, 1], got {value!r}")
    return float(value)


def check_positive(kind: str, key: str, value: Any) -> float:
    """Validate a strictly positive float parameter."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        raise param_error(kind, key, f"must be a positive number, got {value!r}")
    if not float(value) > 0.0:
        raise param_error(kind, key, f"must be > 0, got {value!r}")
    return float(value)


def check_non_negative(kind: str, key: str, value: Any) -> float:
    """Validate a float parameter ``>= 0``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        raise param_error(kind, key, f"must be a non-negative number, got {value!r}")
    if not float(value) >= 0.0:
        raise param_error(kind, key, f"must be >= 0, got {value!r}")
    return float(value)


def check_choice(kind: str, key: str, value: Any, choices: Tuple[str, ...]) -> str:
    """Validate a string parameter against an allowed set."""
    if value not in choices:
        raise param_error(
            kind, key, f"must be one of {', '.join(map(repr, choices))}; got {value!r}"
        )
    return str(value)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
@dataclass
class ScenarioEnvironment:
    """The fixed problem environment a scenario streams requests into.

    This is exactly what the paper's online model reveals in advance (Section
    1.1): the metric space, the facility cost function and the commodity
    universe — never the requests.  ``planted_specs`` optionally carries the
    generator's known-good offline facilities; :meth:`Scenario.realize` and
    the eager workloads hand them on as
    :attr:`~repro.workloads.base.GeneratedWorkload.planted_specs`.
    """

    metric: MetricSpace
    cost: FacilityCostFunction
    commodities: CommodityUniverse
    name: str = "scenario"
    planted_specs: Optional[List[Tuple[int, FrozenSet[int]]]] = None

    @property
    def num_points(self) -> int:
        return self.metric.num_points

    @property
    def num_commodities(self) -> int:
        return self.commodities.size

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "num_points": self.num_points,
            "num_commodities": self.num_commodities,
            "metric": type(self.metric).__name__,
            "cost": getattr(self.cost, "name", type(self.cost).__name__),
            "has_planted_solution": bool(self.planted_specs),
        }


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
class ScenarioStream:
    """A seeded, resumable iterator over a scenario's arrival process.

    Subclasses implement :meth:`_next` (one request per call, or ``None``
    when the process is exhausted) plus, when they carry progress beyond the
    generator state, :meth:`_extra_state` / :meth:`_load_extra_state`.

    The base class enforces the finite-length contract (a scenario with
    ``length == n`` emits exactly ``n`` requests), counts the position, and
    owns the snapshot codec.
    """

    def __init__(
        self,
        scenario: "Scenario",
        environment: ScenarioEnvironment,
        rng: np.random.Generator,
    ) -> None:
        self._scenario = scenario
        self._env = environment
        self._rng = rng
        self._position = 0
        self._exhausted = False

    # ------------------------------------------------------------------
    @property
    def scenario(self) -> "Scenario":
        return self._scenario

    @property
    def environment(self) -> ScenarioEnvironment:
        return self._env

    @property
    def position(self) -> int:
        """Requests emitted so far."""
        return self._position

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def length(self) -> Optional[int]:
        """Total requests this stream will emit (``None`` = unbounded)."""
        return self._scenario.length

    def remaining(self) -> Optional[int]:
        """Requests left to emit, when the length is known."""
        if self._exhausted:
            return 0
        length = self.length
        return None if length is None else max(length - self._position, 0)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def take(self, count: int) -> List[ScenarioRequest]:
        """The next ``count`` requests (fewer when the stream ends first).

        Requests are drawn one at a time from the stream's private generator,
        so the emitted sequence does not depend on how consumption is batched.
        """
        if count < 0:
            raise ScenarioError(f"take() needs a non-negative count, got {count}")
        out: List[ScenarioRequest] = []
        length = self.length
        while len(out) < count and not self._exhausted:
            if length is not None and self._position >= length:
                self._exhausted = True
                break
            item = self._next()
            if item is None:
                self._exhausted = True
                break
            self._position += 1
            out.append(item)
        return out

    def batches(self, batch_size: int) -> Iterator[List[ScenarioRequest]]:
        """Iterate the whole stream in bounded-memory batches."""
        if batch_size < 1:
            raise ScenarioError(f"batch_size must be positive, got {batch_size}")
        while True:
            batch = self.take(batch_size)
            if not batch:
                return
            yield batch

    def observe(self, event: Any) -> None:
        """Feedback hook: adaptive scenarios receive each assignment event.

        Non-adaptive scenarios ignore feedback, which is what keeps their
        streamed-through-a-session output identical to :meth:`Scenario.realize`.
        """

    # ------------------------------------------------------------------
    # Snapshot / resume
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Strict-JSON-compatible resume point (generator state + progress).

        The environment is deliberately *not* stored: it is rebuilt
        deterministically by :meth:`Scenario.open` from the scenario spec and
        seed, so snapshots stay O(progress), never O(instance).
        """
        return {
            "format": STREAM_STATE_FORMAT,
            "kind": self._scenario.kind,
            "position": self._position,
            "exhausted": self._exhausted,
            "rng": rng_state(self._rng),
            "extra": self._extra_state(),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Resume a freshly opened stream bit-identically from ``state``."""
        if state.get("format") != STREAM_STATE_FORMAT:
            raise ScenarioError(
                f"not a scenario stream state (format={state.get('format')!r})"
            )
        if state.get("kind") != self._scenario.kind:
            raise ScenarioError(
                f"stream state was captured from scenario kind {state.get('kind')!r} "
                f"but this stream is {self._scenario.kind!r}"
            )
        self._position = int(state["position"])
        self._exhausted = bool(state["exhausted"])
        self._rng = rng_from_state(state["rng"])
        self._load_extra_state(state.get("extra") or {})

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _next(self) -> Optional[ScenarioRequest]:
        raise NotImplementedError

    def _extra_state(self) -> Dict[str, Any]:
        return {}

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(kind={self._scenario.kind!r}, "
            f"position={self._position}, length={self.length})"
        )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
class Scenario:
    """Base class of all scenario kinds.

    Primitive scenarios implement :meth:`_environment` (build the fixed
    problem environment from a private generator) and :meth:`_stream` (bind a
    :class:`ScenarioStream` subclass); combinators override :meth:`open`
    wholesale to compose child streams.  Both serialize through
    :meth:`params` / :meth:`to_dict`.
    """

    #: Registry key; set by :func:`register_scenario`.
    kind: ClassVar[str] = "?"

    # ------------------------------------------------------------------
    # Declarative form
    # ------------------------------------------------------------------
    def params(self) -> Dict[str, Any]:
        """Canonical JSON-compatible parameters (defaults materialized)."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Nested declarative form (inverse of :func:`scenario_from_dict`)."""
        return {"kind": self.kind, **self.params()}

    # ------------------------------------------------------------------
    @property
    def length(self) -> Optional[int]:
        """Number of requests the scenario emits (``None`` = unbounded)."""
        raise NotImplementedError

    def shape(self) -> Optional[Tuple[int, int]]:
        """Statically known environment shape ``(num_points, num_commodities)``.

        ``None`` when the shape is only known after building the environment
        (e.g. replay of an arbitrary metric spec).  Combinators use this to
        reject children with incompatible environments at construction time —
        so ``repro spec --validate-only`` catches the mismatch without
        opening any stream.
        """
        return None

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def open(self, seed: RandomState = None) -> ScenarioStream:
        """Bind the scenario to ``seed`` and return its request stream.

        The environment and the arrival process get independent child streams
        (prefix-stable :func:`~repro.utils.rng.spawn_child_seeds`), so the
        environment rebuild on snapshot restore never consumes arrival draws.
        """
        env_seed, stream_seed = spawn_child_seeds(seed, 2)
        environment, aux = self._build_environment(ensure_rng(env_seed))
        return self._stream(environment, aux, ensure_rng(stream_seed))

    def realize(
        self, seed: RandomState = None, *, limit: Optional[int] = None
    ) -> "GeneratedWorkload":
        """Materialize the scenario eagerly (bit-identical to streaming it).

        Drains a fresh :meth:`open` stream, with its split child seeds, into a
        :class:`~repro.workloads.base.GeneratedWorkload`; unbounded scenarios
        need an explicit ``limit``.  The eager ``repro.workloads`` builders
        take the same last step, but draw the environment and the requests
        from the caller's one generator.
        """
        from repro.workloads.base import GeneratedWorkload

        target = limit if limit is not None else self.length
        if target is None:
            raise ScenarioError(
                f"scenario {self.kind!r} is unbounded; realize() needs an "
                "explicit limit"
            )
        if target < 1:
            raise ScenarioError(f"realize() limit must be positive, got {target}")
        return GeneratedWorkload.from_stream(
            self.open(seed), int(target), {"scenario": self.kind, "streamed": False}
        )

    def describe(self) -> Dict[str, Any]:
        """Summary for ``repro scenarios describe`` and the docs catalog."""
        doc = (type(self).__doc__ or "").strip().splitlines()
        return {
            "kind": self.kind,
            "summary": doc[0] if doc else "",
            "length": self.length,
            "params": self.params(),
        }

    # ------------------------------------------------------------------
    # Subclass hooks (primitive scenarios)
    # ------------------------------------------------------------------
    def _build_environment(
        self, rng: np.random.Generator
    ) -> Tuple[ScenarioEnvironment, Dict[str, Any]]:
        """Build the environment plus structural side data for the stream.

        The side-data dict (cluster memberships, hotspot neighbor lists, ...)
        is derived purely from the environment generator, so it is rebuilt
        identically on snapshot restore and never serialized.
        """
        raise NotImplementedError

    def _stream(
        self,
        environment: ScenarioEnvironment,
        aux: Dict[str, Any],
        rng: np.random.Generator,
    ) -> ScenarioStream:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(kind={self.kind!r}, length={self.length})"
