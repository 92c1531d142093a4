"""The scenario-engine harness: determinism, composition, and wiring.

Pins the three load-bearing contracts of :mod:`repro.scenarios` for **every
registered scenario kind** over multiple seeds (the acceptance criteria of
the scenario subsystem):

* *batch-size invariance* — the emitted request sequence is exact-``==``
  regardless of how consumption is batched (hypothesis-driven);
* *stream == realize* — the eager materialization is bit-identical to the
  streamed path;
* *snapshot/resume* — a mid-stream ``state_dict`` round-tripped through
  strict JSON resumes bit-identically on a freshly opened stream.

Plus: strict kwarg/range validation (every bad parameter names its key),
combinator semantics, ScenarioSession streamed == batch equivalence,
RunSpec/run()/engine/service wiring, and the ``advance`` wire op.
"""

from __future__ import annotations

import hashlib
import json
import signal
from types import SimpleNamespace
from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import run_online
from repro.api.run import run, run_grid
from repro.api.spec import RunSpec
from repro.engine import ExperimentPlan, ResultStore, run_plan
from repro.exceptions import (
    ExperimentError,
    ReproError,
    ScenarioError,
    ServiceError,
)
from repro.parallel.pool import ParallelConfig
from repro.scenarios import (
    EXAMPLE_SPECS,
    SCENARIOS,
    ScenarioSession,
    derive_session_seeds,
    scenario_from_dict,
)
from repro.scenarios.catalog import MODELS, catalog
from repro.service import SessionManager
from repro.service.protocol import ServiceProtocol
from repro.utils.rng import ensure_rng

SEEDS = [0, 1, 2]

ALL_KINDS = sorted(EXAMPLE_SPECS)


def _drain(stream, batch_size: int = 1_000_000) -> List:
    out = []
    while True:
        batch = stream.take(batch_size)
        if not batch:
            return out
        out.extend(batch)


# ---------------------------------------------------------------------------
# Registry and declarative round-trip
# ---------------------------------------------------------------------------
def test_every_registered_kind_has_an_example_and_model_text():
    assert sorted(SCENARIOS.names()) == ALL_KINDS
    assert sorted(MODELS) == ALL_KINDS


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_to_dict_round_trip_is_stable(kind):
    scenario = scenario_from_dict(EXAMPLE_SPECS[kind])
    data = scenario.to_dict()
    json.dumps(data)  # plain JSON
    again = scenario_from_dict(json.loads(json.dumps(data)))
    assert again.to_dict() == data


def test_catalog_covers_every_kind():
    rows = catalog()
    assert [row["kind"] for row in rows] == SCENARIOS.names()
    for row in rows:
        assert row["models"]
        assert row["summary"]


def test_scenario_from_dict_rejects_garbage():
    with pytest.raises(ScenarioError, match="'kind'"):
        scenario_from_dict({"num_requests": 5})
    with pytest.raises(ScenarioError, match="mappings"):
        scenario_from_dict(42)


# ---------------------------------------------------------------------------
# Determinism: batch invariance, stream == realize, snapshot/resume
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stream_equals_realize_and_batch_invariance(kind, seed):
    scenario = scenario_from_dict(EXAMPLE_SPECS[kind])
    whole = _drain(scenario.open(seed))
    assert len(whole) == scenario.length
    # Batch-size invariance (two very different batchings).
    assert _drain(scenario.open(seed), batch_size=1) == whole
    assert _drain(scenario.open(seed), batch_size=7) == whole
    # Eager materialization is the same requests.
    workload = scenario.realize(seed)
    realized = [(r.point, r.commodities) for r in workload.instance.requests]
    assert realized == whole


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_snapshot_restore_mid_stream_is_bit_identical(kind, seed):
    scenario = scenario_from_dict(EXAMPLE_SPECS[kind])
    split = max(scenario.length // 3, 1)
    stream = scenario.open(seed)
    head = stream.take(split)
    state = json.loads(json.dumps(stream.state_dict()))  # strict-JSON trip
    tail_direct = _drain(stream)

    resumed = scenario.open(seed)
    resumed.load_state_dict(state)
    assert resumed.position == split
    tail_resumed = _drain(resumed)
    assert tail_resumed == tail_direct
    assert head + tail_direct == _drain(scenario.open(seed))


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    batch_size=st.integers(min_value=1, max_value=97),
    split=st.integers(min_value=1, max_value=47),
)
def test_property_nested_mixture_determinism(seed, batch_size, split):
    """Hypothesis sweep on a nested combinator: same seed ⇒ identical stream
    across batch sizes, and a mid-stream snapshot resumes bit-identically."""
    scenario = scenario_from_dict(
        {
            "kind": "mixture",
            "weights": [2.0, 1.0],
            "children": [
                {"kind": "burst", "num_requests": 32, "num_commodities": 5,
                 "num_points": 16, "num_hotspots": 2, "burst_size_mean": 4.0},
                {"kind": "commodity-overlay", "add": [0], "add_probability": 0.5,
                 "child": {"kind": "drift", "num_requests": 16,
                           "num_commodities": 5, "num_points": 16}},
            ],
        }
    )
    reference = _drain(scenario.open(seed))
    assert _drain(scenario.open(seed), batch_size=batch_size) == reference

    stream = scenario.open(seed)
    head = stream.take(split)
    state = json.loads(json.dumps(stream.state_dict()))
    resumed = scenario.open(seed)
    resumed.load_state_dict(state)
    assert head + _drain(resumed) == reference


# ---------------------------------------------------------------------------
# Golden stream digests
# ---------------------------------------------------------------------------
#: Every registered kind's example, plus streams with a fixed demand size (one
#: commodity, ``min_demand == max_demand``, ``demand_size``), which draw no size.
DIGEST_CASES = {
    **{kind: EXAMPLE_SPECS[kind] for kind in ALL_KINDS},
    "uniform-one-commodity": {
        "kind": "uniform", "num_requests": 48, "num_commodities": 1, "num_points": 24,
    },
    "zipf-fixed-size": {
        "kind": "zipf", "num_requests": 48, "num_commodities": 8, "num_points": 24,
        "min_demand": 2, "max_demand": 2,
    },
    "adaptive-fixed-size": {
        "kind": "adaptive", "num_requests": 48, "num_commodities": 6, "num_points": 24,
        "min_demand": 1, "max_demand": 1,
    },
    "clustered-demand-size": {
        "kind": "clustered", "num_requests": 48, "num_commodities": 6,
        "num_clusters": 3, "points_per_cluster": 6, "demand_size": 1,
    },
}

#: Produced by ``_stream_digest`` with the draws that preceded
#: ``choose_distinct``, ``random()`` for ``uniform()`` and the skipped one-value
#: size draws.  A change here changes every request a scenario streams from a
#: seed.
GOLDEN_STREAM_DIGESTS = {
    "adaptive": "bf0d5aaced68ee9f3433f5612409dddc77f82b1844fc4d0e3c37331af4418f10",
    "adaptive-fixed-size": "3401b79a48f0e4882e5d35e45c95878d875b45f117facf5ca38158c271a552bb",
    "arrival-order": "8cf1e2d12bcb106b5ed44d8448a7c4fe7c3af50f53b95fd9490397f7f1bd75f8",
    "burst": "e3feeaf11898e48de23063d1763c43fb0fed77bb9ec97307d975253c0774b99c",
    "clustered": "42fa44223cc4dddcd4d90bfcf40ecea158e1e5a4ea4ebf317e1d1b430b8bb0d6",
    "clustered-demand-size": "e0599c16f859118aa50271b849a1125e45bf40b69e55e4222ca58ce187ec5b22",
    "commodity-overlay": "7f117abb16786195711e99644633a0bdda4c8111999b2bb3ae5794ede9f77e5b",
    "concat": "13379467a1b1f77cc2eadcac6db28aa7ce2f7b59313f05ca398319b0a6b90336",
    "drift": "8f4c1e64f2d7ea3bbe87c785008f43d1424147e28a5590c78ce21eaeb3f3a3c2",
    "fotakis-line": "9cfb1f1f8336ab5d15319da3f305a6afa17fccabe7198563a31648c82930c578",
    "interleave": "e226f473ab675fb535f03665788d3adca08cb54764851e71ef73bd3b4fabbe49",
    "mixture": "512750959cdbff88436c0f61d8e624941bc4f8e14e6784901e592bbcaf386030",
    "permute": "863d28daf2aa36739e58b4bcc962a0a3f59f1997cafe58de8494808071dae82d",
    "replay": "195559370d7705bdd6fc1d78f23ea2bf1bac9eae5873a4c4a62889ea728c779c",
    "service-network": "7e5061f545a26669034868bec195474d927a047f658e750c0d0645c94d48c83f",
    "single-point": "62b97385aac7aca0bc73e902fc05654e4721fc9d7c909ddc71176d7f63edea9e",
    "uniform": "b01f27eeb99485ae530bfefccc3348e63ec0ad55c9e0a3dcdef2a3d2df50d5ba",
    "uniform-one-commodity": "db9ab31b9748836682fdc29c19eba262d59511b3a060b6703763211504ca7f4d",
    "zipf": "56766b8ac98dd4ca81c30dcd9629e650b7ea274addf5a5d79cbba050778670bd",
    "zipf-fixed-size": "b5bc5437238ee538017d1f89f31b819bea5b7993277d7b9024b9c9557cb78808",
}


def _feed(digest, value):
    digest.update(repr(value).encode())
    digest.update(b"\x00")


def _stream_digest(spec) -> str:
    """SHA-256 over seeds 0–7: every request, the planted specs and the end state.

    Each request is fed back through ``observe`` with a made-up connection
    cost, so the adaptive adversary's cost-seeking branch runs too.  The final
    ``state_dict()`` carries the generator state.
    """
    digest = hashlib.sha256()
    scenario = scenario_from_dict(spec)
    for seed in range(8):
        stream = scenario.open(seed)
        while True:
            batch = stream.take(1)
            if not batch:
                break
            point, commodities = batch[0]
            _feed(digest, (point, sorted(commodities)))
            stream.observe(SimpleNamespace(point=point, connection_cost=float(point % 7)))
        _feed(digest, [(p, sorted(c)) for p, c in stream.environment.planted_specs or []])
        _feed(digest, json.dumps(stream.state_dict(), sort_keys=True))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_stream_matches_golden_digest(case):
    assert _stream_digest(DIGEST_CASES[case]) == GOLDEN_STREAM_DIGESTS[case]


def test_unbounded_scenario_streams_and_refuses_blind_realize():
    scenario = scenario_from_dict({"kind": "uniform", "num_commodities": 4})
    assert scenario.length is None
    stream = scenario.open(0)
    first = stream.take(100)
    assert len(first) == 100 and not stream.exhausted
    with pytest.raises(ScenarioError, match="unbounded"):
        scenario.realize(0)
    workload = scenario.realize(0, limit=50)
    assert [(r.point, r.commodities) for r in workload.instance.requests] == first[:50]


# ---------------------------------------------------------------------------
# Strict parameter validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unknown_scenario_parameter_names_the_key(kind):
    spec = dict(EXAMPLE_SPECS[kind])
    spec["definitely_not_a_parameter"] = 1
    with pytest.raises(ReproError, match="definitely_not_a_parameter"):
        scenario_from_dict(spec)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "zipf", "num_requests": 0, "num_commodities": 4}, "num_requests"),
        ({"kind": "zipf", "num_requests": 5, "num_commodities": 4, "zipf_alpha": -1}, "zipf_alpha"),
        ({"kind": "uniform", "num_requests": 5, "num_commodities": 4, "metric_kind": "moebius"}, "metric_kind"),
        ({"kind": "uniform", "num_requests": 5, "num_commodities": 4, "min_demand": 9}, "min_demand"),
        ({"kind": "burst", "num_requests": 5, "num_commodities": 4, "num_hotspots": 99}, "num_hotspots"),
        ({"kind": "burst", "num_requests": 5, "num_commodities": 4, "background_probability": 1.5}, "background_probability"),
        ({"kind": "single-point", "num_commodities": 4, "subset_size": 9}, "subset_size"),
        ({"kind": "drift", "num_requests": 5, "num_commodities": 4, "window": 40}, "window"),
        ({"kind": "mixture", "children": [EXAMPLE_SPECS["zipf"]], "weights": [1, 2]}, "weights"),
        ({"kind": "interleave", "children": [EXAMPLE_SPECS["zipf"]], "block_size": 0}, "block_size"),
        ({"kind": "commodity-overlay", "child": EXAMPLE_SPECS["zipf"], "add_probability": 7}, "add_probability"),
        ({"kind": "replay", "requests": [], "metric": {"kind": "uniform-line", "num_points": 4}, "cost": {"kind": "power", "num_commodities": 2, "exponent_x": 1.0}}, "requests"),
    ],
)
def test_out_of_range_scenario_parameters_name_the_key(spec, key):
    with pytest.raises(ReproError, match=key):
        scenario_from_dict(spec)


def test_unknown_workload_parameter_raises_repro_error_naming_key():
    spec = RunSpec.from_dict(
        {
            "algorithm": "pd-omflp",
            "workload": {"kind": "uniform", "num_requests": 5,
                         "num_commodities": 4, "num_comodities": 4},
            "seed": 0,
        }
    )
    with pytest.raises(ReproError, match="num_comodities"):
        spec.build_instance()


def test_permute_of_unbounded_child_is_rejected():
    with pytest.raises(ScenarioError, match="unbounded"):
        scenario_from_dict(
            {"kind": "permute", "child": {"kind": "uniform", "num_commodities": 4}}
        )


def test_concat_rejects_unbounded_non_final_child():
    with pytest.raises(ScenarioError, match="unbounded"):
        scenario_from_dict(
            {
                "kind": "concat",
                "children": [
                    {"kind": "uniform", "num_commodities": 4},
                    {"kind": "uniform", "num_requests": 5, "num_commodities": 4},
                ],
            }
        )


def test_mixture_rejects_statically_incompatible_children():
    with pytest.raises(ScenarioError, match="must agree"):
        scenario_from_dict(
            {
                "kind": "mixture",
                "children": [
                    {"kind": "zipf", "num_requests": 8, "num_commodities": 4},
                    {"kind": "single-point", "num_commodities": 4},
                ],
            }
        )


# ---------------------------------------------------------------------------
# Combinator semantics
# ---------------------------------------------------------------------------
def test_concat_emits_children_back_to_back():
    child_a = {"kind": "uniform", "num_requests": 10, "num_commodities": 4, "num_points": 12}
    child_b = {"kind": "zipf", "num_requests": 7, "num_commodities": 4, "num_points": 12}
    concat = scenario_from_dict({"kind": "concat", "children": [child_a, child_b]})
    items = _drain(concat.open(3))
    assert len(items) == 17
    # The first child's emissions are reproducible from its own child seed.
    from repro.utils.rng import spawn_child_seeds

    seeds = spawn_child_seeds(3, 3)
    first = _drain(scenario_from_dict(child_a).open(seeds[1]))
    assert items[:10] == first


def test_interleave_round_robin_blocks():
    child = {"kind": "uniform", "num_requests": 6, "num_commodities": 4, "num_points": 12}
    inter = scenario_from_dict(
        {"kind": "interleave", "block_size": 2, "children": [child, dict(child)]}
    )
    from repro.utils.rng import spawn_child_seeds

    seeds = spawn_child_seeds(5, 3)
    a = _drain(scenario_from_dict(child).open(seeds[1]))
    b = _drain(scenario_from_dict(child).open(seeds[2]))
    expected = a[0:2] + b[0:2] + a[2:4] + b[2:4] + a[4:6] + b[4:6]
    assert _drain(inter.open(5)) == expected


def test_mixture_weights_bias_the_blend():
    mixture = scenario_from_dict(
        {
            "kind": "mixture",
            "weights": [9.0, 1.0],
            "num_requests": 400,
            "children": [
                {"kind": "uniform", "num_commodities": 2, "num_points": 8},
                {"kind": "uniform", "num_commodities": 2, "num_points": 8},
            ],
        }
    )
    stream = mixture.open(0)
    _drain(stream)
    first, second = stream._children
    assert first.position + second.position == 400
    assert first.position > 300  # 9:1 weights
    assert second.position > 0


def test_mixture_exhausted_child_renormalizes():
    mixture = scenario_from_dict(
        {
            "kind": "mixture",
            "children": [
                {"kind": "uniform", "num_requests": 3, "num_commodities": 2, "num_points": 8},
                {"kind": "uniform", "num_requests": 30, "num_commodities": 2, "num_points": 8},
            ],
        }
    )
    items = _drain(mixture.open(1))
    assert len(items) == 33  # every child request is eventually emitted


def test_permute_is_a_permutation_of_the_child():
    child = {"kind": "clustered", "num_requests": 30, "num_commodities": 5, "num_clusters": 3}
    permuted = scenario_from_dict({"kind": "permute", "child": child})
    items = _drain(permuted.open(4))
    from repro.utils.rng import spawn_child_seeds

    child_items = _drain(scenario_from_dict(child).open(spawn_child_seeds(4, 2)[1]))
    assert sorted(items) == sorted(child_items)
    assert items != child_items  # overwhelmingly likely for n=30


def test_arrival_order_sparse_first_sorts_by_demand_size():
    child = {"kind": "uniform", "num_requests": 40, "num_commodities": 6,
             "num_points": 12, "max_demand": 6}
    ordered = scenario_from_dict(
        {"kind": "arrival-order", "order": "sparse-first", "child": child}
    )
    sizes = [len(commodities) for _, commodities in _drain(ordered.open(0))]
    assert sizes == sorted(sizes)
    reversed_child = scenario_from_dict(
        {"kind": "arrival-order", "order": "reversed", "child": child}
    )
    from repro.utils.rng import spawn_child_seeds

    base = _drain(scenario_from_dict(child).open(spawn_child_seeds(0, 2)[1]))
    assert _drain(reversed_child.open(0)) == base[::-1]


def test_commodity_overlay_adds_and_remaps():
    child = {"kind": "uniform", "num_requests": 60, "num_commodities": 6,
             "num_points": 12, "min_demand": 1, "max_demand": 2}
    overlay = scenario_from_dict(
        {"kind": "commodity-overlay", "child": child, "add": [5],
         "add_probability": 1.0, "remap": {"5": 4}}
    )
    items = _drain(overlay.open(0))
    assert all(5 in commodities for _, commodities in items)
    remap_only = scenario_from_dict(
        {"kind": "commodity-overlay", "child": child, "remap": {"5": 4}}
    )
    assert all(5 not in commodities for _, commodities in _drain(remap_only.open(0)))


def test_replay_loops_its_trace():
    replayed = scenario_from_dict(EXAMPLE_SPECS["replay"])
    items = _drain(replayed.open(0))
    period = len(items) // EXAMPLE_SPECS["replay"]["loop"]
    assert items[:period] * EXAMPLE_SPECS["replay"]["loop"] == items


def test_replay_from_record_round_trips_through_run():
    base = {
        "algorithm": "pd-omflp",
        "metric": {"kind": "uniform-line", "num_points": 8},
        "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
        "requests": [[1, [0, 1]], [6, [2]], [2, [0, 3]]],
        "seed": 0,
    }
    record = run(base)
    from repro.scenarios import ReplayScenario

    replayed = ReplayScenario.from_record(record)
    items = _drain(replayed.open(0))
    assert items == [(1, frozenset({0, 1})), (6, frozenset({2})), (2, frozenset({0, 3}))]
    # Replaying against the same algorithm reproduces the run's cost.
    rerun = run({"algorithm": "pd-omflp", "scenario": replayed.to_dict(), "seed": 0})
    assert rerun.total_cost == record.total_cost


# ---------------------------------------------------------------------------
# ScenarioSession: streamed == batch, feedback, durability
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["pd-omflp", "rand-omflp", "per-commodity-meyerson"])
@pytest.mark.parametrize("kind", ["mixture", "burst", "drift", "clustered"])
def test_streamed_session_matches_batch_run_on_realized_instance(kind, algorithm):
    seed = 13
    spec = {"algorithm": algorithm, "scenario": EXAMPLE_SPECS[kind], "seed": seed}
    streamed = ScenarioSession(spec).run()

    scenario = scenario_from_dict(EXAMPLE_SPECS[kind])
    scenario_seed, algorithm_seed = derive_session_seeds(seed)
    instance = scenario.realize(scenario_seed).instance
    batch_algorithm = RunSpec.from_dict(spec).build_algorithm()
    batch = run_online(batch_algorithm, instance, rng=ensure_rng(algorithm_seed))
    assert streamed.total_cost == batch.total_cost
    assert streamed.opening_cost == batch.opening_cost
    assert streamed.connection_cost == batch.connection_cost
    assert streamed.num_facilities == batch.solution.num_facilities()


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_session_snapshot_restore_continues_bit_identically(seed):
    spec = {"algorithm": "rand-omflp", "scenario": EXAMPLE_SPECS["burst"], "seed": seed}
    reference = ScenarioSession(spec)
    reference_events = reference.advance()
    reference_record = reference.finalize()

    session = ScenarioSession(spec)
    head = session.advance(17)
    snapshot_json = session.snapshot().to_json()
    restored = ScenarioSession.restore(snapshot_json)
    assert restored.position == 17
    tail = restored.advance()
    events = [e.to_dict() for e in head + tail]
    assert events == [e.to_dict() for e in reference_events]
    assert restored.finalize().total_cost == reference_record.total_cost


def test_adaptive_scenario_reacts_to_feedback():
    spec = {
        "kind": "adaptive",
        "num_requests": 120,
        "num_commodities": 3,
        "num_points": 24,
        "exploration": 0.1,
    }
    with_feedback = ScenarioSession(
        {"algorithm": "pd-omflp", "scenario": spec, "seed": 0}
    )
    with_feedback.advance()
    fed_points = [r.point for r in with_feedback.session.state.processed_requests]
    # Without feedback the same seed explores uniformly.
    bare = [point for point, _ in _drain(scenario_from_dict(spec).open(
        derive_session_seeds(0)[0]))]
    assert fed_points != bare
    # The adaptive stream concentrates: fewer distinct points than uniform.
    assert len(set(fed_points)) < len(set(bare))


def test_seedless_scenario_session_refuses_to_snapshot():
    """Without a root seed the environment is fresh entropy: a restore would
    silently continue on a *different* random environment, so snapshot()
    must refuse instead."""
    session = ScenarioSession(
        {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS["burst"]}
    )
    session.advance(5)  # running without a seed is fine...
    with pytest.raises(ScenarioError, match="seed"):
        session.snapshot()  # ...capturing a restorable snapshot is not


def test_cli_sample_typo_gets_did_you_mean():
    from repro.cli import _load_scenario_argument
    from repro.exceptions import UnknownComponentError

    with pytest.raises(UnknownComponentError, match="zipf"):
        _load_scenario_argument("zipff")


def test_unbounded_session_run_requires_max_requests():
    spec = {"algorithm": "pd-omflp",
            "scenario": {"kind": "uniform", "num_commodities": 3}, "seed": 0}
    session = ScenarioSession(spec)
    with pytest.raises(ScenarioError, match="max_requests"):
        session.run()
    record = ScenarioSession(spec).run(max_requests=40)
    assert record.num_requests == 40



def _advance_timed_out(signum, frame):
    raise TimeoutError("advance() did not return")


def test_unbounded_session_advance_requires_a_count():
    """Without a count, advance() on an unbounded scenario would never return."""
    spec = {"algorithm": "pd-omflp",
            "scenario": {"kind": "uniform", "num_commodities": 3}, "seed": 0}
    session = ScenarioSession(spec)
    previous = signal.signal(signal.SIGALRM, _advance_timed_out)
    signal.alarm(5)
    try:
        with pytest.raises(ScenarioError, match="scenario 'uniform' is unbounded"):
            session.advance()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert session.position == 0
    assert len(session.advance(40)) == 40

# ---------------------------------------------------------------------------
# RunSpec / run() wiring
# ---------------------------------------------------------------------------
def test_runspec_scenario_round_trip_and_exclusivity():
    data = {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS["mixture"], "seed": 2}
    spec = RunSpec.from_dict(data)
    assert spec.to_dict()["scenario"]["kind"] == "mixture"
    assert RunSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
    with pytest.raises(ExperimentError, match="not both"):
        RunSpec.from_dict(
            {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS["mixture"],
             "workload": {"kind": "uniform", "num_requests": 5, "num_commodities": 4}}
        )
    with pytest.raises(ExperimentError, match="not both"):
        RunSpec.from_dict(
            {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS["mixture"],
             "metric": {"kind": "uniform-line", "num_points": 4}}
        )


def test_run_streams_online_scenario_and_is_reproducible():
    spec = {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS["concat"], "seed": 5}
    first = run(spec)
    second = run(spec)
    assert first.kind == "online"
    assert first.num_requests == 48
    assert first.total_cost == second.total_cost
    assert first.spec["scenario"]["kind"] == "concat"


def test_run_realizes_offline_scenario():
    record = run({"algorithm": "greedy", "scenario": EXAMPLE_SPECS["clustered"], "seed": 5})
    assert record.kind == "offline"
    assert record.num_requests == 48


def test_legacy_workload_kinds_resolve_as_scenarios():
    for kind in ("uniform", "clustered", "zipf", "service-network"):
        record = run(
            {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS[kind], "seed": 0}
        )
        assert record.num_requests == EXAMPLE_SPECS[kind]["num_requests"]


def test_normalized_resolves_nested_scenarios_and_flags_typos():
    spec = RunSpec.from_dict(
        {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS["mixture"], "seed": 1}
    )
    normalized = spec.normalized()
    # Defaults materialized on nested children.
    child = normalized["scenario"]["children"][0]
    assert child["min_demand"] == 1
    typo = RunSpec.from_dict(
        {"algorithm": "pd-omflp",
         "scenario": {"kind": "zipf", "num_requests": 5, "num_commodities": 4,
                      "zipf_alfa": 1.0}}
    )
    with pytest.raises(ReproError, match="zipf_alfa"):
        typo.normalized()
    bad_algorithm = RunSpec.from_dict(
        {"algorithm": {"kind": "pd-omflp", "not_a_param": 1},
         "scenario": EXAMPLE_SPECS["zipf"]}
    )
    with pytest.raises(ReproError, match="not_a_param"):
        bad_algorithm.normalized()


def test_run_grid_sweeps_scenario_axes():
    records = run_grid(
        {"algorithm": "pd-omflp",
         "scenario": {"kind": "zipf", "num_requests": 12, "num_commodities": 4,
                      "num_points": 12},
         "seed": 0},
        [{"scenario.zipf_alpha": alpha} for alpha in (0.5, 1.5)],
    )
    assert len(records) == 2
    assert [r.spec["scenario"]["zipf_alpha"] for r in records] == [0.5, 1.5]


# ---------------------------------------------------------------------------
# Engine wiring: scenarios as case axes
# ---------------------------------------------------------------------------
def test_engine_plan_over_scenario_specs_with_store_reuse(tmp_path):
    cases = [
        {"spec": {"algorithm": "pd-omflp",
                  "scenario": {"kind": "burst", "num_requests": 16,
                               "num_commodities": 4, "num_points": 12,
                               "burst_size_mean": 4.0},
                  "seed": seed}}
        for seed in SEEDS
    ]
    def comparable(rows):
        # Wall-clock timing is the one legitimately nondeterministic column.
        return [{k: v for k, v in row.items() if k != "runtime_seconds"} for row in rows]

    plan = ExperimentPlan("scenario-grid", "run-spec", cases, seed=0)
    serial = run_plan(plan)
    store = ResultStore(tmp_path / "store")
    stored = run_plan(plan, store=store)
    assert comparable(stored.rows) == comparable(serial.rows)
    warm = run_plan(plan, store=store)
    assert warm.reused_count == len(plan)
    assert comparable(warm.rows) == comparable(serial.rows)
    pooled = run_plan(plan, config=ParallelConfig(workers=2, min_items_for_parallel=1))
    assert comparable(pooled.rows) == comparable(serial.rows)


# ---------------------------------------------------------------------------
# Service wiring: scenario-backed sessions, advance op, evict/resume
# ---------------------------------------------------------------------------
def _service_spec(seed=11):
    return {"algorithm": "rand-omflp", "scenario": EXAMPLE_SPECS["drift"], "seed": seed}


def test_service_scenario_session_advances_and_rejects_submit():
    manager = SessionManager()
    manager.create("s", _service_spec())
    status = manager.status("s")
    assert status["scenario"]["kind"] == "drift"
    events, exhausted = manager.advance("s", 10)
    assert len(events) == 10 and not exhausted
    with pytest.raises(ServiceError, match="advance"):
        manager.submit("s", 0, [0])
    remaining, exhausted = manager.advance("s")
    assert exhausted
    assert manager.status("s")["scenario"]["remaining"] == 0
    record = manager.finalize("s")
    assert record.num_requests == 48


def test_service_plain_session_rejects_advance():
    manager = SessionManager()
    manager.create(
        "plain",
        {"algorithm": "pd-omflp",
         "metric": {"kind": "uniform-line", "num_points": 8},
         "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
         "requests": [], "seed": 0},
    )
    with pytest.raises(ServiceError, match="submit"):
        manager.advance("plain", 1)


def test_service_scenario_eviction_resumes_generator_bit_identically(tmp_path):
    reference = SessionManager()
    reference.create("ref", _service_spec())
    reference_events, _ = reference.advance("ref")
    reference_record = reference.finalize("ref")

    manager = SessionManager(snapshot_dir=tmp_path)
    manager.create("s", _service_spec())
    head, _ = manager.advance("s", 20)
    manager.evict("s")
    assert manager.status("s").get("evicted")
    tail, exhausted = manager.advance("s")  # transparent reload from disk
    assert exhausted
    assert [e.to_dict() for e in head + tail] == [
        e.to_dict() for e in reference_events
    ]
    assert manager.finalize("s").total_cost == reference_record.total_cost



def test_service_refuses_a_scenario_snapshot_whose_stream_moved(tmp_path):
    """A reload checks the file as ScenarioSession.restore does: a stream
    position that disagrees with the served requests is refused, on the
    wire too, and the file stays on disk as it was."""
    manager = SessionManager(snapshot_dir=tmp_path)
    manager.create("s", _service_spec())
    manager.advance("s", 20)
    path = manager.evict("s")
    data = json.loads(path.read_text())
    data["scenario_state"]["position"] += 5
    damaged = json.dumps(data)
    path.write_text(damaged)
    with pytest.raises(ScenarioError, match="stream position 25 vs 20 session requests"):
        manager.advance("s", 3)
    response = ServiceProtocol(manager).handle({"op": "advance", "name": "s", "count": 3})
    assert response["ok"] is False and response["error_type"] == "ScenarioError"
    assert path.read_text() == damaged
    assert manager.status("s").get("evicted")

def test_protocol_advance_op_round_trip():
    protocol = ServiceProtocol(SessionManager())
    created = protocol.handle(
        {"op": "create", "name": "a",
         "spec": {"algorithm": "pd-omflp", "scenario": EXAMPLE_SPECS["mixture"],
                  "seed": 0}}
    )
    assert created["ok"], created
    partial = protocol.handle({"op": "advance", "name": "a", "count": 10})
    assert partial["served"] == 10 and not partial["exhausted"]
    rest = protocol.handle({"op": "advance", "name": "a"})
    assert rest["exhausted"] and rest["served"] == 38
    finalized = protocol.handle({"op": "finalize", "name": "a"})
    assert finalized["ok"]
    # Plain sessions still reject the op with a useful error.
    bad = protocol.handle({"op": "advance", "name": "missing"})
    assert not bad["ok"]
