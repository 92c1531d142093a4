"""Batch folds equal one-by-one folds: telemetry probes, the reservoir, the tracer.

A session hands its telemetry sink a batch of served events at a time
(:meth:`~repro.telemetry.sink.TelemetrySink.record_batch`), each probe folds
the batch in one pass, and the tracer folds each phase's buffered
observations in one pass, its reservoir sample jumping between replacement
indices.  Every fold must leave exactly the state that folding the same
values one by one leaves.  The batch sizes cross the 64-event flush cadence
(63, 64, 65) and, with a small reservoir, the reservoir fill and many
replacements (600).  Exact ``==`` throughout; the probe states are also
pinned to a digest of the one-event-at-a-time fold.  A traced session decides per request whether to
record detail spans by one compare against the next sampled index; the last
tests pin that walk to the tracer's stratified sample.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.api.session import AssignmentEvent
from repro.costs.count_based import PowerCost
from repro.metric.euclidean import EuclideanMetric
from repro.scenarios.run import ScenarioSession
from repro.telemetry import METRICS_PROBES, MetricsProbe, TelemetrySink
from repro.trace.reservoir import ReservoirSampler
from repro.trace.tracer import Tracer

from oracles import ReferenceReservoirSampler

BATCH_SIZES = (1, 63, 64, 65, 600)
NUM_EVENTS = 1300
NUM_COMMODITIES = 4
#: Small enough that the batches cross the competitive-ratio probe's anchor
#: cap.
PROBE_SPECS = (
    {"kind": "cost-decomposition"},
    {"kind": "opening-rate"},
    {"kind": "competitive-ratio", "anchor_cap": 5},
)
#: sha256 of the sink's state_dict (``json.dumps(..., sort_keys=True)``)
#: after the one-probe-call-per-event fold of these events, recorded before
#: the latency probe and the elapsed-time argument were deleted (the three
#: remaining probes' part of the state was left unchanged by that).  A change
#: here means the probe arithmetic moved; fix the arithmetic, do not re-pin.
SINK_STATE_DIGEST = "da48846d8ef3ac36a60813bb91fcf8ce934dadf12c7a7a4bfaf147911e0d1ac2"


def _environment():
    coords = np.random.default_rng(11).integers(0, 40, size=(64, 2))
    return EuclideanMetric(coords), PowerCost(NUM_COMMODITIES, 1.0, scale=3.0)


def _events():
    """A deterministic stream of served-request events and elapsed times:
    repeated points, one to four commodities, openings on about one request
    in six, elapsed times with repeats (folded by the tracer tests)."""
    g = np.random.default_rng(2024)
    events, elapsed = [], []
    opening_so_far = connection_so_far = 0.0
    facilities = 0
    for index in range(NUM_EVENTS):
        size = int(g.integers(1, NUM_COMMODITIES + 1))
        commodities = frozenset(g.choice(NUM_COMMODITIES, size=size, replace=False).tolist())
        opening = float(g.random() * 5.0) if g.random() < 0.17 else 0.0
        if opening > 0.0:
            facilities += 1
        facility_ids = tuple(
            sorted({int(g.integers(0, facilities)) for _ in commodities} if facilities else ())
        )
        connection = float(g.random() * 2.0)
        opening_so_far += opening
        connection_so_far += connection
        events.append(
            AssignmentEvent(
                request_index=index,
                point=int(g.integers(0, 64)),
                commodities=commodities,
                facility_ids=facility_ids,
                opening_cost_delta=opening,
                connection_cost=connection,
                opening_cost_so_far=opening_so_far,
                connection_cost_so_far=connection_so_far,
            )
        )
        elapsed.append(float(g.integers(1, 200)) * 1e-6)
    return events, elapsed


EVENTS, ELAPSED = _events()


def _bound_sink() -> TelemetrySink:
    sink = TelemetrySink([dict(spec) for spec in PROBE_SPECS])
    sink.bind(*_environment())
    return sink


def _digest(state) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def test_probe_specs_cover_every_registered_probe():
    assert sorted(spec["kind"] for spec in PROBE_SPECS) == sorted(METRICS_PROBES.names())


@pytest.mark.parametrize("spec", PROBE_SPECS, ids=lambda spec: spec["kind"])
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_probe_batch_equals_per_event_observe(spec, batch):
    one_by_one = METRICS_PROBES.build(spec["kind"], **{k: v for k, v in spec.items() if k != "kind"})
    batched = METRICS_PROBES.build(spec["kind"], **{k: v for k, v in spec.items() if k != "kind"})
    for probe in (one_by_one, batched):
        probe.bind(*_environment())
    for event in EVENTS:
        one_by_one.observe(event)
    for start in range(0, NUM_EVENTS, batch):
        batched.observe_batch(EVENTS[start : start + batch])
    assert batched.summary() == one_by_one.summary()
    assert batched.state_dict() == one_by_one.state_dict()


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_sink_record_batch_matches_the_pinned_per_event_state(batch):
    sink = _bound_sink()
    for start in range(0, NUM_EVENTS, batch):
        sink.record_batch(EVENTS[start : start + batch])
    reference = _bound_sink()
    for event in EVENTS:
        for probe in reference.probes:
            probe.observe(event)
    assert sink.summary() == reference.summary()
    assert sink.state_dict() == reference.state_dict()
    assert _digest(sink.state_dict()) == SINK_STATE_DIGEST


def test_default_observe_batch_loops_observe():
    """A third-party probe that only implements observe still sees every
    event of a batch, in order."""

    class Recorder(MetricsProbe):
        kind = "test-recorder"

        def __init__(self) -> None:
            self.seen = []

        def observe(self, event):
            self.seen.append(event.request_index)

        def summary(self):
            return {"num_requests": len(self.seen)}

        def _state(self):
            return {}

        def _load_state(self, state):
            pass

    probe = Recorder()
    sink = TelemetrySink([probe])
    sink.record_batch(EVENTS[:65])
    assert probe.seen == [event.request_index for event in EVENTS[:65]]


@pytest.mark.parametrize("capacity", [1, 5, 40])
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_reservoir_add_many_equals_algorithm_l_per_value(capacity, batch):
    reference = ReferenceReservoirSampler(capacity=capacity, seed=3)
    reference.add_many(ELAPSED)
    batched = ReservoirSampler(capacity=capacity, seed=3)
    for start in range(0, NUM_EVENTS, batch):
        batched.add_many(ELAPSED[start : start + batch])
    assert batched.state_dict() == reference.state_dict()


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_tracer_flush_folds_equals_per_value_fold(batch):
    tracer = Tracer(reservoir_capacity=40)
    buffer = tracer.phase_buffer("phase.a")
    for start in range(0, NUM_EVENTS, batch):
        buffer.extend(ELAPSED[start : start + batch])
        tracer._flush_folds()
    stats = tracer._phases["phase.a"]

    count, total, shortest, longest = 0, 0.0, float("inf"), 0.0
    for seconds in ELAPSED:  # the one-by-one fold, in arrival order
        count += 1
        total += seconds
        shortest = min(shortest, seconds)
        longest = max(longest, seconds)
    sampler = ReferenceReservoirSampler(capacity=40, seed=stats.sampler.seed)
    sampler.add_many(ELAPSED)
    assert (stats.count, stats.total_seconds, stats.min_seconds, stats.max_seconds) == (
        count,
        total,
        shortest,
        longest,
    )
    assert stats.sampler.state_dict() == sampler.state_dict()


@pytest.mark.parametrize("stride", [1, 2, 7, 64])
def test_next_detail_walks_the_stratified_sample(stride):
    sampler = Tracer(detail_stride=stride, sample_seed=5)
    walker = Tracer(detail_stride=stride, sample_seed=5)
    sampled = [index for index in range(300) if sampler.should_detail(index)]
    walked, index = [], walker.next_detail(0)
    while index < 300:
        walked.append(index)
        index = walker.next_detail(index + 1)
    assert walked == sampled
    assert walker.next_detail(sampled[-1]) == sampled[-1]


def test_scenario_session_details_exactly_the_sampled_requests():
    """The session and the scenario lock-step decide detail from the
    session's next sampled index; the spans land on the tracer's sample."""
    spec = {
        "algorithm": "meyerson-ofl",
        "scenario": {"kind": "uniform", "num_commodities": 1, "num_points": 64, "max_demand": 1},
        "seed": 3,
    }
    tracer = Tracer(detail_stride=16, sample_seed=9, buffer_size=10_000)
    ScenarioSession(spec, tracer=tracer).advance(200)
    reference = Tracer(detail_stride=16, sample_seed=9)
    expected = [index for index in range(200) if reference.should_detail(index)]
    for name in ("session.submit", "algorithm.process", "scenario.draw", "scenario.observe"):
        assert [span.ordinal for span in tracer.spans() if span.name == name] == expected
    assert tracer.phase_summary()["algorithm.process"]["count"] == 200
