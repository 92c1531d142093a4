"""Scenario combinators: compose arrival processes into richer scenarios.

Combinators are scenarios over scenarios — their children are nested
declarative specs, so arbitrary compositions remain plain JSON:

* :class:`MixtureScenario` — per-request weighted choice among children
  (heavy-commodity mixes: blend a zipf stream with a single-point adversary);
* :class:`ConcatScenario` — children back to back (regime changes);
* :class:`InterleaveScenario` — round-robin blocks from each child
  (concurrent tenants sharing one facility infrastructure);
* :class:`PermuteScenario` / :class:`ArrivalOrderScenario` — arrival-order
  transforms of a finite child (uniformly random order vs the heuristic
  adversarial orders of :mod:`repro.workloads.orders`), reflecting the
  weakened-adversary discussion of Section 1.2;
* :class:`CommodityOverlayScenario` — per-commodity overlays on a child's
  demands (inject a heavy commodity into a fraction of requests, remap
  commodities onto a shared universe).

**Environment adoption.**  A combinator's fixed environment (metric, cost,
commodities) is the *first* child's; every other child must agree on
``num_points`` and ``num_commodities`` and contributes only its arrival
pattern — request streams are index streams, so they transplant cleanly onto
the adopted environment.  Combining scenarios with different shapes raises
:class:`~repro.exceptions.ScenarioError` up front.

**Streaming.**  Child streams advance lazily (only when the combinator emits
from them), every stream stays bounded-memory except the order transforms
(which must buffer their finite child — documented O(n)), and snapshots
recurse: a combinator's state dict embeds each child's state dict, so a
mid-stream snapshot of a nested mixture resumes every branch bit-identically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ScenarioError
from repro.scenarios.base import (
    Scenario,
    ScenarioEnvironment,
    ScenarioRequest,
    ScenarioStream,
    check_choice,
    check_count,
    check_fraction,
    check_optional_count,
    param_error,
    register_scenario,
    scenario_from_dict,
)
from repro.utils.rng import RandomState, ensure_rng, spawn_child_seeds
from repro.workloads.orders import sparse_first_order

__all__ = [
    "MixtureScenario",
    "ConcatScenario",
    "InterleaveScenario",
    "PermuteScenario",
    "ArrivalOrderScenario",
    "CommodityOverlayScenario",
]


def _resolve_children(kind: str, children: Any, *, minimum: int = 1) -> List[Scenario]:
    if not isinstance(children, (list, tuple)) or len(children) < minimum:
        raise param_error(
            kind, "children", f"must be a list of at least {minimum} scenario spec(s)"
        )
    return [scenario_from_dict(child) for child in children]


def _resolve_child(kind: str, child: Any) -> Scenario:
    if child is None:
        raise param_error(kind, "child", "is required (a nested scenario spec)")
    return scenario_from_dict(child)


def _sum_lengths(children: Sequence[Scenario]) -> Optional[int]:
    total = 0
    for child in children:
        if child.length is None:
            return None
        total += child.length
    return total


class _CombinatorScenario(Scenario):
    """Shared child handling: seeding, environment adoption, recursion."""

    def _children_list(self) -> List[Scenario]:
        raise NotImplementedError

    def shape(self) -> Optional[Tuple[int, int]]:
        return self._children_list()[0].shape()

    def _check_child_shapes(self) -> None:
        """Reject statically incompatible children at construction time.

        Children whose shape is not statically known (``None``) are checked
        dynamically at :meth:`open` instead.
        """
        children = self._children_list()
        known = [(index, child.shape()) for index, child in enumerate(children)]
        known = [(index, shape) for index, shape in known if shape is not None]
        if len(known) < 2:
            return
        base_index, base_shape = known[0]
        for index, shape in known[1:]:
            if shape != base_shape:
                raise ScenarioError(
                    f"scenario {self.kind!r}: child {index} "
                    f"({children[index].kind!r}) has environment shape "
                    f"{shape} (points, commodities) but child {base_index} "
                    f"({children[base_index].kind!r}) has {base_shape}; "
                    "combinator children must agree on both"
                )

    def open(self, seed: RandomState = None) -> ScenarioStream:
        children = self._children_list()
        seeds = spawn_child_seeds(seed, len(children) + 1)
        streams = [child.open(child_seed) for child, child_seed in zip(children, seeds[1:])]
        environment = self._adopt_environment(streams)
        return self._combine(environment, streams, ensure_rng(seeds[0]))

    def _adopt_environment(self, streams: Sequence[ScenarioStream]) -> ScenarioEnvironment:
        environment = streams[0].environment
        for index, stream in enumerate(streams[1:], start=1):
            candidate = stream.environment
            if (
                candidate.num_points != environment.num_points
                or candidate.num_commodities != environment.num_commodities
            ):
                raise ScenarioError(
                    f"scenario {self.kind!r}: child {index} "
                    f"({stream.scenario.kind!r}) has environment shape "
                    f"({candidate.num_points} points, "
                    f"{candidate.num_commodities} commodities) but the adopted "
                    f"environment of child 0 ({streams[0].scenario.kind!r}) has "
                    f"({environment.num_points} points, "
                    f"{environment.num_commodities} commodities); combinator "
                    "children must agree on both"
                )
        # The combinator names the instance; metric/cost stay the adopted ones.
        children = ",".join(child.scenario.kind for child in streams)
        return replace(environment, name=f"{self.kind}[{children}]")

    def _combine(
        self,
        environment: ScenarioEnvironment,
        streams: List[ScenarioStream],
        rng: np.random.Generator,
    ) -> ScenarioStream:
        raise NotImplementedError


class _CombinatorStream(ScenarioStream):
    """Base for streams that own child streams (recursive snapshots)."""

    def __init__(self, scenario, environment, rng, children: List[ScenarioStream]):
        super().__init__(scenario, environment, rng)
        self._children = children

    def observe(self, event: Any) -> None:
        for child in self._children:
            child.observe(event)

    def _extra_state(self) -> Dict[str, Any]:
        return {"children": [child.state_dict() for child in self._children]}

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        states = extra["children"]
        if len(states) != len(self._children):
            raise ScenarioError(
                f"scenario {self._scenario.kind!r}: state carries {len(states)} "
                f"child stream(s) but this stream has {len(self._children)}"
            )
        for child, state in zip(self._children, states):
            child.load_state_dict(state)


# ----------------------------------------------------------------------
# mixture
# ----------------------------------------------------------------------
@register_scenario("mixture")
class MixtureScenario(_CombinatorScenario):
    """Per-request weighted choice among child arrival processes."""

    def __init__(
        self,
        *,
        children: Any,
        weights: Optional[Sequence[float]] = None,
        num_requests: Optional[int] = None,
    ) -> None:
        self.children = _resolve_children(self.kind, children)
        if weights is None:
            self.weights = [1.0] * len(self.children)
        else:
            if len(weights) != len(self.children):
                raise param_error(
                    self.kind,
                    "weights",
                    f"must have one entry per child ({len(self.children)}), "
                    f"got {len(weights)}",
                )
            self.weights = []
            for index, weight in enumerate(weights):
                if not isinstance(weight, (int, float)) or not float(weight) > 0:
                    raise param_error(
                        self.kind, "weights", f"entry {index} must be > 0, got {weight!r}"
                    )
                self.weights.append(float(weight))
        self.num_requests = check_optional_count(self.kind, "num_requests", num_requests)
        self._check_child_shapes()

    def _children_list(self) -> List[Scenario]:
        return self.children

    def params(self) -> Dict[str, Any]:
        return {
            "children": [child.to_dict() for child in self.children],
            "weights": list(self.weights),
            "num_requests": self.num_requests,
        }

    @property
    def length(self) -> Optional[int]:
        total = _sum_lengths(self.children)
        if self.num_requests is None:
            return total
        if total is None:
            return self.num_requests
        return min(self.num_requests, total)

    def _combine(self, environment, streams, rng):
        return _MixtureStream(self, environment, rng, streams)


class _MixtureStream(_CombinatorStream):
    def _next(self) -> Optional[ScenarioRequest]:
        weights = self._scenario.weights
        while True:
            active = [i for i, child in enumerate(self._children) if not child.exhausted]
            if not active:
                return None
            probabilities = np.asarray([weights[i] for i in active], dtype=np.float64)
            probabilities /= probabilities.sum()
            pick = active[int(self._rng.choice(len(active), p=probabilities))]
            got = self._children[pick].take(1)
            if got:
                return got[0]
            # The picked child turned out to be dry — it is now flagged
            # exhausted, so the retry renormalizes over the remaining ones.


# ----------------------------------------------------------------------
# concat
# ----------------------------------------------------------------------
@register_scenario("concat")
class ConcatScenario(_CombinatorScenario):
    """Child arrival processes back to back (regime changes)."""

    def __init__(self, *, children: Any) -> None:
        self.children = _resolve_children(self.kind, children)
        for index, child in enumerate(self.children[:-1]):
            if child.length is None:
                raise param_error(
                    self.kind,
                    "children",
                    f"child {index} ({child.kind!r}) is unbounded; only the "
                    "last child of a concat may be unbounded",
                )
        self._check_child_shapes()

    def _children_list(self) -> List[Scenario]:
        return self.children

    def params(self) -> Dict[str, Any]:
        return {"children": [child.to_dict() for child in self.children]}

    @property
    def length(self) -> Optional[int]:
        return _sum_lengths(self.children)

    def _combine(self, environment, streams, rng):
        return _ConcatStream(self, environment, rng, streams)


class _ConcatStream(_CombinatorStream):
    def __init__(self, scenario, environment, rng, children):
        super().__init__(scenario, environment, rng, children)
        self._current = 0

    def _next(self) -> Optional[ScenarioRequest]:
        while self._current < len(self._children):
            got = self._children[self._current].take(1)
            if got:
                return got[0]
            self._current += 1
        return None

    def _extra_state(self) -> Dict[str, Any]:
        extra = super()._extra_state()
        extra["current"] = self._current
        return extra

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        super()._load_extra_state(extra)
        self._current = int(extra["current"])


# ----------------------------------------------------------------------
# interleave
# ----------------------------------------------------------------------
@register_scenario("interleave")
class InterleaveScenario(_CombinatorScenario):
    """Round-robin blocks from each child (concurrent tenants)."""

    def __init__(self, *, children: Any, block_size: int = 1) -> None:
        self.children = _resolve_children(self.kind, children)
        self.block_size = check_count(self.kind, "block_size", block_size)
        self._check_child_shapes()

    def _children_list(self) -> List[Scenario]:
        return self.children

    def params(self) -> Dict[str, Any]:
        return {
            "children": [child.to_dict() for child in self.children],
            "block_size": self.block_size,
        }

    @property
    def length(self) -> Optional[int]:
        return _sum_lengths(self.children)

    def _combine(self, environment, streams, rng):
        return _InterleaveStream(self, environment, rng, streams)


class _InterleaveStream(_CombinatorStream):
    def __init__(self, scenario, environment, rng, children):
        super().__init__(scenario, environment, rng, children)
        self._current = 0
        self._in_block = 0

    def _advance_child(self) -> None:
        self._current = (self._current + 1) % len(self._children)
        self._in_block = 0

    def _next(self) -> Optional[ScenarioRequest]:
        for _ in range(len(self._children) + 1):
            if all(child.exhausted for child in self._children):
                return None
            stream = self._children[self._current]
            if stream.exhausted:
                self._advance_child()
                continue
            got = stream.take(1)
            if not got:
                self._advance_child()
                continue
            self._in_block += 1
            if self._in_block >= self._scenario.block_size:
                self._advance_child()
            return got[0]
        return None

    def _extra_state(self) -> Dict[str, Any]:
        extra = super()._extra_state()
        extra["current"] = self._current
        extra["in_block"] = self._in_block
        return extra

    def _load_extra_state(self, extra: Mapping[str, Any]) -> None:
        super()._load_extra_state(extra)
        self._current = int(extra["current"])
        self._in_block = int(extra["in_block"])


# ----------------------------------------------------------------------
# Order transforms (buffered: the finite child is drained up front)
# ----------------------------------------------------------------------
class _BufferedTransformScenario(_CombinatorScenario):
    """Shared base for transforms that need the whole child sequence."""

    child: Scenario

    def _require_finite_child(self) -> None:
        if self.child.length is None:
            raise param_error(
                self.kind,
                "child",
                f"({self.child.kind!r}) is unbounded; order transforms must "
                "buffer the whole child sequence",
            )

    def _children_list(self) -> List[Scenario]:
        return [self.child]

    @property
    def length(self) -> Optional[int]:
        return self.child.length


class _BufferedStream(ScenarioStream):
    """Emit a precomputed buffer; the child was fully drained at open time.

    The buffer and its ordering are pure functions of the open seed, so
    ``load_state_dict`` only needs the base position — the buffer is rebuilt
    identically by the fresh :meth:`Scenario.open` that precedes it.
    """

    def __init__(self, scenario, environment, rng, buffer: List[ScenarioRequest]):
        super().__init__(scenario, environment, rng)
        self._buffer = buffer

    def _next(self) -> Optional[ScenarioRequest]:
        if self._position >= len(self._buffer):
            return None
        return self._buffer[self._position]


@register_scenario("permute")
class PermuteScenario(_BufferedTransformScenario):
    """A uniformly random arrival order of a finite child scenario."""

    def __init__(self, *, child: Any) -> None:
        self.child = _resolve_child(self.kind, child)
        self._require_finite_child()

    def params(self) -> Dict[str, Any]:
        return {"child": self.child.to_dict()}

    def _combine(self, environment, streams, rng):
        buffer: List[ScenarioRequest] = streams[0].take(self.child.length)
        order = rng.permutation(len(buffer))
        return _BufferedStream(self, environment, rng, [buffer[i] for i in order])


@register_scenario("arrival-order")
class ArrivalOrderScenario(_BufferedTransformScenario):
    """Deterministic arrival-order transforms of a finite child scenario.

    ``"sparse-first"`` is the heuristic adversarial order of
    :func:`repro.workloads.orders.adversarial_order` (small demands first,
    far-from-modal points first), ``"dense-first"`` its reverse,
    ``"reversed"`` flips the child, ``"random"`` is a uniformly random
    permutation.
    """

    ORDERS = ("sparse-first", "dense-first", "reversed", "random")

    def __init__(self, *, child: Any, order: str = "sparse-first") -> None:
        self.child = _resolve_child(self.kind, child)
        self._require_finite_child()
        self.order = check_choice(self.kind, "order", order, self.ORDERS)

    def params(self) -> Dict[str, Any]:
        return {"child": self.child.to_dict(), "order": self.order}

    def _combine(self, environment, streams, rng):
        buffer: List[ScenarioRequest] = streams[0].take(self.child.length)
        if self.order == "random":
            order = list(rng.permutation(len(buffer)))
        elif self.order == "reversed":
            order = list(range(len(buffer) - 1, -1, -1))
        else:
            order = sparse_first_order(environment.metric, buffer)
            if self.order == "dense-first":
                order.reverse()
        return _BufferedStream(self, environment, rng, [buffer[int(i)] for i in order])


# ----------------------------------------------------------------------
# commodity-overlay
# ----------------------------------------------------------------------
@register_scenario("commodity-overlay")
class CommodityOverlayScenario(_CombinatorScenario):
    """Per-commodity overlays on a child's demand sets.

    ``add`` commodities are unioned into each request's demand with
    probability ``add_probability`` (the heavy-commodity mix of the paper's
    closing remarks: one commodity suddenly appears in a fraction of all
    requests); ``remap`` renames child commodities onto the adopted
    universe before the overlay.
    """

    def __init__(
        self,
        *,
        child: Any,
        add: Optional[Sequence[int]] = None,
        add_probability: float = 1.0,
        remap: Optional[Mapping[Any, int]] = None,
    ) -> None:
        self.child = _resolve_child(self.kind, child)
        self.add = sorted(int(e) for e in (add or []))
        if any(e < 0 for e in self.add):
            raise param_error(self.kind, "add", "entries must be non-negative commodity indices")
        self.add_probability = check_fraction(self.kind, "add_probability", add_probability)
        self.remap: Dict[int, int] = {}
        for key, value in (remap or {}).items():
            try:
                self.remap[int(key)] = int(value)
            except (TypeError, ValueError):
                raise param_error(
                    self.kind, "remap", f"must map commodity indices, got {key!r}: {value!r}"
                ) from None

    def _children_list(self) -> List[Scenario]:
        return [self.child]

    def params(self) -> Dict[str, Any]:
        return {
            "child": self.child.to_dict(),
            "add": list(self.add),
            "add_probability": self.add_probability,
            # JSON object keys are strings; keep the canonical form stable.
            "remap": {str(k): v for k, v in sorted(self.remap.items())},
        }

    @property
    def length(self) -> Optional[int]:
        return self.child.length

    def _combine(self, environment, streams, rng):
        universe = environment.num_commodities
        for key in self.add:
            if key >= universe:
                raise param_error(
                    self.kind, "add", f"commodity {key} is outside |S|={universe}"
                )
        for source, target in self.remap.items():
            if source >= universe or target >= universe or target < 0 or source < 0:
                raise param_error(
                    self.kind,
                    "remap",
                    f"{source} -> {target} leaves the commodity universe |S|={universe}",
                )
        return _OverlayStream(self, environment, rng, streams)


class _OverlayStream(_CombinatorStream):
    def _next(self) -> Optional[ScenarioRequest]:
        scenario: CommodityOverlayScenario = self._scenario
        got = self._children[0].take(1)
        if not got:
            return None
        point, commodities = got[0]
        if scenario.remap:
            commodities = frozenset(scenario.remap.get(e, e) for e in commodities)
        if scenario.add:
            if self._rng.random() < scenario.add_probability:
                commodities = commodities | frozenset(scenario.add)
        return point, commodities
