"""A restore from either snapshot format equals re-recording its log: a differential fuzz.

``OnlineState.load_state_dict`` rebuilds a log in one array pass: the
facility replay reads each facility's distance column once, for its
trackers and for the connection costs of the requests it serves, and the
per-request costs fold from those distances.  ``ObjectLogState``
(``tests/oracles.py``) replays the same snapshot by re-recording every
request.  Hypothesis draws small line and grid instances with integer
coordinates (so distances tie and points repeat), 1-4 commodities,
facilities opened between requests at repeated points, and requests served
by one to three distinct facilities, some through several commodities of
one facility.  The run is recorded in order and snapshotted at a drawn cut;
a restore from either format must equal the oracle's replay with ``==``
(running total, per-request costs, snapshot bytes, assignments and
requests), and again after both serve the rest of the run.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import PowerCost
from repro.metric.grid import GridMetric
from repro.metric.line import LineMetric

from oracles import ObjectLogState, v1_state_dict
from test_state_log_equivalence import assert_same_log, play


@st.composite
def runs(draw):
    """``(metric, number of commodities, steps for play(), cut)``."""
    num_points = draw(st.integers(1, 8))
    if draw(st.booleans()):
        cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
        metric = GridMetric(draw(st.lists(cell, min_size=num_points, max_size=num_points)))
    else:
        coordinate = st.integers(0, 4)
        metric = LineMetric(draw(st.lists(coordinate, min_size=num_points, max_size=num_points)))
    num_commodities = draw(st.integers(1, 4))
    point = st.integers(0, num_points - 1)
    configuration = st.sets(st.integers(0, num_commodities - 1), min_size=1)
    offered = []
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        for _ in range(draw(st.integers(0 if offered else 1, 2))):
            offered.append(draw(configuration))
            steps.append(("open", draw(point), offered[-1]))
        pool = draw(st.lists(st.integers(0, len(offered) - 1), min_size=1, max_size=3))
        commodities = sorted(set().union(*(offered[f] for f in pool)))
        demand = draw(st.lists(st.sampled_from(commodities), min_size=1, unique=True))
        pairs = {
            commodity: draw(st.sampled_from([f for f in pool if commodity in offered[f]]))
            for commodity in demand
        }
        steps.append(("record", draw(point), pairs))
    return metric, num_commodities, steps, draw(st.integers(0, len(steps)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(runs())
def test_a_restore_from_either_format_equals_re_recording(run):
    metric, num_commodities, steps, cut = run
    instance = Instance(metric, PowerCost(num_commodities, 1.0), RequestSequence([]))
    live = OnlineState(instance)
    play(live, steps[:cut])
    snapshot = json.loads(json.dumps(live.state_dict()))
    for data in (snapshot, v1_state_dict(snapshot)):
        restored, replayed = OnlineState(instance), ObjectLogState(instance)
        restored.load_state_dict(copy.deepcopy(data))
        replayed.load_state_dict(copy.deepcopy(data))
        assert_same_log(restored, replayed)
        assert restored.current_costs() == replayed.current_costs() == live.current_costs()
        for state in (restored, replayed):
            play(state, steps[cut:])
        assert_same_log(restored, replayed)
        assert restored.current_costs() == replayed.current_costs()
