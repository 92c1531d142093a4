"""Tests for OnlineState and execution traces."""

import gc
import tracemalloc
from collections import Counter

import pytest

import repro.algorithms.online.pd_omflp as pd_omflp_module
import repro.algorithms.online.rand_omflp as rand_omflp_module
import repro.core.state as state_module
from repro import ALGORITHMS, run_online
from repro.core import Assignment, OnlineState, Request, Trace
from repro.core.trace import (
    CoinFlipEvent,
    DualFreezeEvent,
    FacilityOpenedEvent,
    RequestAssignedEvent,
)
from repro.exceptions import AlgorithmError
from repro.scenarios import ScenarioSession
from repro.workloads import uniform_workload


class TestOnlineState:
    def test_open_and_assign(self, small_instance):
        state = OnlineState(small_instance, trace=Trace(enabled=True))
        request = small_instance.requests[0]  # point 0, commodities {0, 1}
        facility = state.open_facility(request, 1, {0, 1})
        assert facility.opening_cost > 0
        assignment = Assignment(request_index=0)
        assignment.assign(0, facility.id)
        assignment.assign(1, facility.id)
        state.record_assignment(request, assignment)
        assert state.current_opening_cost() == pytest.approx(facility.opening_cost)
        assert state.current_connection_cost() == pytest.approx(0.25)
        assert state.current_total_cost() == pytest.approx(facility.opening_cost + 0.25)
        assert len(state.processed_requests) == 1
        solution = state.to_solution()
        solution.validate(small_instance.requests.prefix(1))

    def test_distance_queries_delegate_to_store(self, small_instance):
        state = OnlineState(small_instance)
        request = small_instance.requests[0]
        assert state.distance_to_nearest(0, 0) == float("inf")
        state.open_facility(request, 4, {0})
        assert state.distance_to_nearest(0, 0) == pytest.approx(1.0)
        assert state.nearest_offering(0, 0)[0].point == 4
        assert state.distance_to_nearest_large(0) == float("inf")
        state.open_large_facility(request, 2)
        assert state.distance_to_nearest_large(0) == pytest.approx(0.5)
        assert state.nearest_large(0)[0].point == 2

    def test_double_assignment_rejected(self, small_instance):
        state = OnlineState(small_instance)
        request = small_instance.requests[1]  # point 4, commodity {2}
        facility = state.open_facility(request, 4, {2})
        state.record_assignment(request, Assignment(1, {2: facility.id}))
        with pytest.raises(AlgorithmError):
            state.record_assignment(request, Assignment(1, {2: facility.id}))

    def test_assign_to_single_facility_requires_coverage(self, small_instance):
        state = OnlineState(small_instance)
        request = small_instance.requests[0]  # {0, 1}
        small = state.open_facility(request, 0, {0})
        with pytest.raises(AlgorithmError):
            state.assign_to_single_facility(request, small)
        large = state.open_large_facility(request, 0)
        assignment = state.assign_to_single_facility(request, large)
        assert assignment.uses_single_facility()

    def test_trace_records_events(self, small_instance):
        state = OnlineState(small_instance, trace=Trace(enabled=True))
        request = small_instance.requests[0]
        state.open_large_facility(request, 0)
        state.assign_to_single_facility(request, state.store[0])
        openings = state.trace.facility_openings()
        assert len(openings) == 1
        assert openings[0].is_large
        assert len(state.trace.events_for_request(0)) == 2
        assert "opened large facility" in state.trace.transcript()

    def test_disabled_trace_records_nothing(self, small_instance):
        state = OnlineState(small_instance, trace=Trace(enabled=False))
        request = small_instance.requests[0]
        state.open_large_facility(request, 0)
        assert len(state.trace) == 0

    def test_log_memory_per_request_is_bounded(self):
        """A streamed session retains a fixed, small number of bytes per
        request: the log is arrays (~50 bytes per single-commodity request),
        not Request and Assignment objects (~760)."""
        session = ScenarioSession(
            {
                "algorithm": "meyerson-ofl",
                "scenario": {
                    "kind": "uniform",
                    "num_commodities": 1,
                    "num_points": 1024,
                    "num_requests": 25000,
                },
                "seed": 0,
            }
        )
        tracemalloc.start()
        try:
            retained = []
            for served in (5000, 25000):
                while session.position < served:
                    session.step()
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        per_request = (retained[1] - retained[0]) / 20000
        assert per_request < 200, f"{per_request:.0f} bytes retained per request"


class TestTraceEvents:
    def test_describe_methods(self):
        opened = FacilityOpenedEvent(
            request_index=1, facility_id=2, point=3, configuration=frozenset({0}), opening_cost=1.5
        )
        assert "small facility #2" in opened.describe()
        large = FacilityOpenedEvent(
            request_index=1, facility_id=2, point=3, configuration=frozenset({0, 1}),
            opening_cost=1.5, is_large=True,
        )
        assert "large facility" in large.describe()
        assigned = RequestAssignedEvent(request_index=0, facility_ids=(1, 2), connection_cost=0.5)
        assert "connected via 2" in assigned.describe()
        via_large = RequestAssignedEvent(
            request_index=0, facility_ids=(1,), connection_cost=0.5, via_large=True
        )
        assert "single large facility" in via_large.describe()
        freeze = DualFreezeEvent(request_index=0, commodity=3, value=0.7, reason="test")
        assert "a_(r,3)" in freeze.describe()
        coin = CoinFlipEvent(request_index=0, kind="small", commodity=1, class_index=2,
                             probability=0.3, success=True)
        assert "OPENED" in coin.describe()
        assert "commodity 1" in coin.describe()
        base_event = FacilityOpenedEvent(request_index=0)
        assert "request 0" in base_event.describe()


class TestEventConstruction:
    """Event sites build events only when the trace is enabled."""

    #: Every module that constructs one of the four event classes.
    EVENT_SITES = (
        (state_module, FacilityOpenedEvent),
        (state_module, RequestAssignedEvent),
        (rand_omflp_module, CoinFlipEvent),
        (pd_omflp_module, DualFreezeEvent),
    )
    PARAMS = {"threshold-pd": {"num_commodities": 4, "excluded": [0]}}
    SINGLE_COMMODITY = {"fotakis-ofl", "meyerson-ofl"}

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Per-class counts of event constructions at every event site."""
        counts = Counter()

        def counting(cls):
            def build(*args, **kwargs):
                counts[cls] += 1
                return cls(*args, **kwargs)

            return build

        for module, cls in self.EVENT_SITES:
            monkeypatch.setattr(module, cls.__name__, counting(cls))
        return counts

    def _run(self, name, *, trace):
        workload = uniform_workload(
            num_requests=20,
            num_commodities=1 if name in self.SINGLE_COMMODITY else 4,
            num_points=12,
            rng=3,
        )
        algorithm = ALGORITHMS.build(name, **self.PARAMS.get(name, {}))
        return run_online(algorithm, workload.instance, rng=5, trace=trace)

    @pytest.mark.parametrize("name", ALGORITHMS.names())
    def test_disabled_trace_builds_no_events(self, constructions, name):
        result = self._run(name, trace=False)
        assert result.solution.num_facilities() > 0
        assert len(result.trace) == 0
        assert sum(constructions.values()) == 0

    @pytest.mark.parametrize("name", ALGORITHMS.names())
    def test_enabled_trace_records_every_built_event(self, constructions, name):
        result = self._run(name, trace=True)
        recorded = Counter(type(event) for event in result.trace.events)
        assert recorded == constructions
        assert recorded[RequestAssignedEvent] == 20
        assert recorded[FacilityOpenedEvent] == result.solution.num_facilities()
