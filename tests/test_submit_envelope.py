"""The submit envelope: what ``OnlineSession.submit`` builds and checks per arrival.

Every arrival builds a :class:`Request`, checks it against the instance
(:meth:`Instance.validate_request`), lets the algorithm record an
``Assignment`` in the state and returns an :class:`AssignmentEvent`.  The
three frozen records (``Request``, ``Facility``, ``AssignmentEvent``) have a
written-out ``__init__`` that stores the fields in one pass over the instance
dict.  These tests pin, with exact ``==``:

* the events and finalized costs of every registered online algorithm on
  three scenarios and two seeds, as SHA-256 digests: ``uniform`` and
  ``clustered`` recorded before the envelope was trimmed, the tie-prone
  ``ties`` instance before the single-commodity helpers dropped their own
  facility lists (a tie that moved between a helper's slot order and the
  state's facility-id order would show only here).  The
  production-vs-oracle grids cannot see such a change: both of their sides
  run through the same session, and the oracle changed with production;
* the generated surface of the three records: fields, ``==`` and ``hash``
  for positional and keyword builds, ``repr``, ``dataclasses.replace``,
  pickling, ``deepcopy`` and ``FrozenInstanceError``, and the checks the
  constructors of ``Request`` and ``Facility`` run, with their messages;
* the exception type and message of every rejected submit, that a rejected
  submit changes nothing, and the coercion of accepted inputs (NumPy ints,
  floats, a one-shot generator);
* :meth:`Instance.validate_request` and
  :meth:`FacilityCostFunction.normalize_configuration`, which test a whole
  set at once and walk it only to name the first commodity out of range.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import json
import pickle

import numpy as np
import pytest

from repro.api.components import ALGORITHMS
from repro.api.session import AssignmentEvent, OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.core.facility import Facility
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.costs.count_based import PowerCost
from repro.costs.general import PerPointScaledCost
from repro.exceptions import (
    AlgorithmError,
    InvalidCostFunctionError,
    InvalidInstanceError,
)
from repro.metric.factories import uniform_line_metric
from repro.metric.line import LineMetric
from repro.scenarios import ScenarioSession

# ---------------------------------------------------------------------------
# Golden event digests
# ---------------------------------------------------------------------------
#: The algorithms that need |S| = 1.
SINGLE_COMMODITY = {"meyerson-ofl", "fotakis-ofl"}

#: "algorithm/scenario/seed" -> SHA-256 over every event's to_dict() (JSON,
#: sorted keys) and the finalized (opening, connection, total, facilities).
GOLDEN_EVENT_DIGESTS = {
    "always-large-greedy/clustered/0": "2457f5a6def98715e54c68b49f372c9da6482670b950952f50f3939f0a1aa339",
    "always-large-greedy/clustered/1": "da7a816118dbcab4aa16bef696d24b423e5c45c8d46397598a5819612142c89c",
    "always-large-greedy/ties/0": "6c5d51a5503c30b801858f96b2446deaef5c6c78b528826949f74a955a4c73ac",
    "always-large-greedy/ties/1": "bcf22170539e7707d0434b4f0ce546ee37c199530f61b66b74af36557ec25e56",
    "always-large-greedy/uniform/0": "1670f57f164c87a524a579fdf17518b30950d3c7a6e79680dacde8ff00703e3d",
    "always-large-greedy/uniform/1": "71420604762d35377cdb498323bc227ae7f806f02deb17f70357e2378fc92b63",
    "fotakis-ofl/clustered/0": "69c049901f39bcfe965399aaaef7312ae63a0a406069a47d5edddc34ce367279",
    "fotakis-ofl/clustered/1": "68a7242075b5bd25f15c496b3f5b49db9c48f4ddee4abd7aface2bdef588bd3b",
    "fotakis-ofl/ties/0": "7a1305e39c8f0206a1a6baee9d3bfa3c378a05ca10873a9230d5cd8f72a32bd6",
    "fotakis-ofl/ties/1": "c021c1b622cc41b0a9704d40547edd1ddee11a391e7b4ac3be532319981e1e59",
    "fotakis-ofl/uniform/0": "b1b3f24f169f42781208d7a0726851fff760fa308b0fe9eaf7132e26650725ec",
    "fotakis-ofl/uniform/1": "c2bd96dda3da0376700eb830456e523feca12bbb0da482d14cab2c401b9420ff",
    "meyerson-ofl/clustered/0": "d0d42378b081a01ce0b85a2a4763a948a101d662f4ca7b6a210ef9f9b2ab0441",
    "meyerson-ofl/clustered/1": "6bf3ab83acb44481fb8d037df88b39b5cddfbb5d61544e5ad051db2d948c792f",
    "meyerson-ofl/ties/0": "1f9bb7908c2463d0f3eaba4e0484cb2e3b162ce687f2dae1570d84ca303a1e6b",
    "meyerson-ofl/ties/1": "eccf71218875363824a3c84341e06233f7b11dff99274dd5c599a3e8d0e732da",
    "meyerson-ofl/uniform/0": "7626d50a127014e1b46b0ecf5a8710bafc85a952ec78e503834e13b8228be77b",
    "meyerson-ofl/uniform/1": "80a204bb4885d5141b3b269a49275cf7524ae9824c561377c618644500ea1d7e",
    "no-prediction-greedy/clustered/0": "d5f41116c5bdaefa8294c2cbc442d67cb811a03a282f79ee2eadfea8ccc531a9",
    "no-prediction-greedy/clustered/1": "3748b6396971bd905f3ae2510e7941efe6eca1f69794b8063de73822bb02c40f",
    "no-prediction-greedy/ties/0": "df8855540073efda7fd15958033641b508051424c80cdd81a8b842a67e1b1c5a",
    "no-prediction-greedy/ties/1": "b5f51ff2dbc919f8446d5373ee2a762c605a8cdec3c4248b062d135aa92418ae",
    "no-prediction-greedy/uniform/0": "d3ff7f00727d5d7e8e1b3043104dc6682488a401ebb6fe04201fd01a5073b17d",
    "no-prediction-greedy/uniform/1": "0cc986d6f3aeec7cbaa3f74102e15d2b01fe5fafae68cd41bc5fc405f98e0eb4",
    "pd-omflp/clustered/0": "dd11b95bc57737715206cc66df83b19559ec40ea338885ed81924789bf6accaa",
    "pd-omflp/clustered/1": "0a74fca007ea67a940d15a3db97157c513983b8c99db043ec4651482e8029e2d",
    "pd-omflp/ties/0": "9c7cffd1e2b222207158d0b2490ce7cce84321703b1ceff05798101d2a68af60",
    "pd-omflp/ties/1": "14b60ece83a82abb113e09ff44b703677ce271c5958fbfebb6ddee681029ca02",
    "pd-omflp/uniform/0": "63be8e3e6a1d1a9b718513bfad3a1a474d18d255a5a05caeaed30a220ab515f8",
    "pd-omflp/uniform/1": "cd6f9ed3b325e9d981ccfe88fb988af91fede762a614423433c58a87befc3844",
    "per-commodity-fotakis/clustered/0": "403e376e63837cebef25610bf92d1832863084cdbe8667a5401369aa3cd87010",
    "per-commodity-fotakis/clustered/1": "41a69774d6f2c2dda3ab3131a277551028f67b6bfb51a79a91e11f437836d399",
    "per-commodity-fotakis/ties/0": "5a3fe01c912d5022534be762fce4869f90fbfa3540828a8ed24f0c8c24a63d6e",
    "per-commodity-fotakis/ties/1": "c56e5afb3c80079eb3f955047343b221fd142103e7574a2aa49a707daa811b36",
    "per-commodity-fotakis/uniform/0": "d5fe1d5e405437ea1dcfc47948462e15e9193e6578dd4822543f164a3d398e92",
    "per-commodity-fotakis/uniform/1": "d34fdefe6f80717ac4240ec1d9242cbe07e44ac1954bad02c12089d95f7f96eb",
    "per-commodity-meyerson/clustered/0": "bde1d2490377466e9391dfa08d4a798e1221f6e387f061ada7db3b6a9364e668",
    "per-commodity-meyerson/clustered/1": "253c540f63eadde88ca80ec1915476b84bd503bc4efb8eccefb67c0ad0d107cd",
    "per-commodity-meyerson/ties/0": "9828b40a56ff62ee6a3ad611fd173e9cdd0a603ed6c0a0923d2cb02de599c6a4",
    "per-commodity-meyerson/ties/1": "2f978dd4bd99b6f84be54b6381fa558064ec3945b773455b50dadf2e29059614",
    "per-commodity-meyerson/uniform/0": "267d1b79d3bec0ac888be56f7d52b5ac5a23d398be47b957b2e7891883c98cc4",
    "per-commodity-meyerson/uniform/1": "4f43a8a9569001b7b38ef8d27e9bf77f8ab7e1608df53a32f04e108d10e3bada",
    "rand-omflp/clustered/0": "599dfdf774ccdb2871fe771fd588a520f33e4c0122eb6a8eb585d7d4e2c76d8c",
    "rand-omflp/clustered/1": "bb05bad92e968cd7d70365daaf4ec8a16e278910cfbf0b6d3ebf9571289085f4",
    "rand-omflp/ties/0": "e48b5a132aa48fcc5da937a66eab9db3fe2ec78b54182804f4edfc9c2231f09b",
    "rand-omflp/ties/1": "9f91c8eeca1627a0793e43b2deae801fcdca936eb93f6143528ba4f490a6ca8c",
    "rand-omflp/uniform/0": "7d7a4b92187528b8cc5ae78f3ae546068f809e2ce0070f7149b4577f9cbc076c",
    "rand-omflp/uniform/1": "a7a99670657fe2ce029e34ddb33f68490329eafc01465066159bd33661d8115c",
    "threshold-pd/clustered/0": "d1c5edc0144cbd938ff2ceeb9ac6e6f6d0c422db79685495d4aedcb8767d3c9b",
    "threshold-pd/clustered/1": "8a98bfd8ea871aa2211f46967a0e7611c85b7a6b832279309a68054042487e55",
    "threshold-pd/ties/0": "9996a32dc7d22528ab5fb7db69848c832c79988785ef086f38a134770996b012",
    "threshold-pd/ties/1": "1da01285729b20bb6a9f5aaa6047dafb0191b11ba5d6b8618d285d5058fdabc0",
    "threshold-pd/uniform/0": "929a581ad3c7cdd90c417a5540cc59f0c0bb5f7b80fca83ba3ff7dd4fcb4f2bc",
    "threshold-pd/uniform/1": "6bf58ed1f891be479ceeeaf2d810cf593ab5c9990400512a51d93f5d5734a116",
}


def _scenario(kind: str, num_commodities: int) -> dict:
    if kind == "uniform":
        return {"kind": "uniform", "num_commodities": num_commodities, "num_points": 24,
                "num_requests": 40}
    return {"kind": "clustered", "num_commodities": num_commodities, "num_clusters": 3,
            "points_per_cluster": 6, "num_requests": 40}


#: The "ties" instance: integer coordinates on a line with repeated points,
#: and per-point cost scales with zeros and repeats, so distances, cost
#: classes and opening levels tie exactly and tie-breaks decide the run.
TIE_COORDINATES = [0, 0, 1, 3, 3, 3, 4, 6, 6, 7, 9, 9]
TIE_SCALES = [0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 1.0]


def _tie_events(algorithm, seed: int, num_commodities: int) -> tuple:
    """The events of 40 arrivals drawn with ``seed`` (so points repeat) on the
    "ties" instance, and the session that served them."""
    session = OnlineSession(
        algorithm,
        LineMetric(TIE_COORDINATES),
        PerPointScaledCost(PowerCost(num_commodities, 1.0), TIE_SCALES),
        commodities=CommodityUniverse(num_commodities),
        rng=seed,
    )
    draws = np.random.default_rng(seed)
    events = []
    for _ in range(40):
        point = int(draws.integers(len(TIE_COORDINATES)))
        size = int(draws.integers(1, num_commodities + 1))
        events.append(
            session.submit(point, draws.choice(num_commodities, size, replace=False).tolist())
        )
    return events, session


def _event_digest(name: str, kind: str, seed: int) -> str:
    num_commodities = 1 if name in SINGLE_COMMODITY else 3
    params = (
        {"num_commodities": num_commodities, "excluded": [0]} if name == "threshold-pd" else {}
    )
    if kind == "ties":
        events, session = _tie_events(ALGORITHMS.build(name, **params), seed, num_commodities)
    else:
        session = ScenarioSession(
            {
                "algorithm": {"kind": name, **params} if params else name,
                "scenario": _scenario(kind, num_commodities),
                "seed": seed,
            }
        )
        events = session.advance()
    digest = hashlib.sha256()
    for event in events:
        digest.update(json.dumps(event.to_dict(), sort_keys=True).encode())
    record = session.finalize()
    digest.update(
        repr(
            (record.opening_cost, record.connection_cost, record.total_cost,
             record.num_facilities)
        ).encode()
    )
    return digest.hexdigest()


def test_the_digest_grid_covers_every_online_algorithm():
    assert {key.split("/")[0] for key in GOLDEN_EVENT_DIGESTS} == set(ALGORITHMS.names())


@pytest.mark.parametrize("case", sorted(GOLDEN_EVENT_DIGESTS))
def test_events_and_costs_match_the_golden_digest(case):
    name, kind, seed = case.split("/")
    assert _event_digest(name, kind, int(seed)) == GOLDEN_EVENT_DIGESTS[case]


# ---------------------------------------------------------------------------
# The records' generated surface
# ---------------------------------------------------------------------------
#: (class, positional arguments, repr of the built record, a replacement).
RECORDS = [
    pytest.param(
        Request,
        (3, 5, frozenset({2, 0})),
        "Request(index=3, point=5, commodities=frozenset({0, 2}))",
        {"point": 7},
        id="request",
    ),
    pytest.param(
        Facility,
        (1, 4, frozenset({1}), 2.5),
        "Facility(id=1, point=4, configuration=frozenset({1}), opening_cost=2.5)",
        {"opening_cost": 3.0},
        id="facility",
    ),
    pytest.param(
        AssignmentEvent,
        (3, 5, frozenset({0, 2}), (1, 4), 0.5, 1.25, 3.0, 7.5),
        "AssignmentEvent(request_index=3, point=5, commodities=frozenset({0, 2}), "
        "facility_ids=(1, 4), opening_cost_delta=0.5, connection_cost=1.25, "
        "opening_cost_so_far=3.0, connection_cost_so_far=7.5)",
        {"connection_cost": 2.0},
        id="event",
    ),
]

FIELDS = {
    Request: ("index", "point", "commodities"),
    Facility: ("id", "point", "configuration", "opening_cost"),
    AssignmentEvent: (
        "request_index", "point", "commodities", "facility_ids", "opening_cost_delta",
        "connection_cost", "opening_cost_so_far", "connection_cost_so_far",
    ),
}


@pytest.mark.parametrize("cls,args,text,change", RECORDS)
def test_records_keep_their_dataclass_surface(cls, args, text, change):
    names = FIELDS[cls]
    assert tuple(field.name for field in dataclasses.fields(cls)) == names
    assert tuple(inspect.signature(cls).parameters) == names
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    assert positional == keyword and hash(positional) == hash(keyword)
    assert positional != cls(*args[:1], args[1] + 1, *args[2:])
    assert repr(positional) == text
    assert dataclasses.astuple(positional) == args

    replaced = dataclasses.replace(positional, **change)
    assert type(replaced) is cls
    assert {name: getattr(replaced, name) for name in names} == {
        **dict(zip(names, args)), **change
    }

    for copied in (pickle.loads(pickle.dumps(positional)), copy.deepcopy(positional)):
        assert type(copied) is cls and copied == positional
        assert hash(copied) == hash(positional) and repr(copied) == text

    with pytest.raises(dataclasses.FrozenInstanceError):
        positional.point = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del positional.point
    assert positional == keyword


def test_replace_runs_the_checks_again():
    request = Request(0, 2, frozenset({1}))
    with pytest.raises(InvalidInstanceError, match="^request point must be non-negative, got -1$"):
        dataclasses.replace(request, point=-1)
    facility = Facility(0, 2, frozenset({1}), 1.0)
    with pytest.raises(InvalidInstanceError, match="^a facility must offer at least one"):
        dataclasses.replace(facility, configuration=[])


#: (arguments, error message or the repr of the built record).
REQUEST_BUILDS = [
    ((-1, 0, [0]), "request index must be non-negative, got -1"),
    ((0, -2, [0]), "request point must be non-negative, got -2"),
    ((0, 0, []), "request 0 demands no commodities"),
    ((-1, 0, []), "request index must be non-negative, got -1"),
    ((0, 1, [1, 0]), "Request(index=0, point=1, commodities=frozenset({0, 1}))"),
    ((0, 1, (2,)), "Request(index=0, point=1, commodities=frozenset({2}))"),
    ((0, 1, {1}), "Request(index=0, point=1, commodities=frozenset({1}))"),
]

FACILITY_BUILDS = [
    ((-1, 0, [0], 1.0), "facility id must be non-negative, got -1"),
    ((0, -1, [0], 1.0), "facility point must be non-negative, got -1"),
    ((0, 0, [], 1.0), "a facility must offer at least one commodity"),
    ((0, 0, [0], -0.5), "opening cost must be non-negative, got -0.5"),
    ((-1, -1, [], -1.0), "facility id must be non-negative, got -1"),
    ((0, 1, [1, 0], 2.0),
     "Facility(id=0, point=1, configuration=frozenset({0, 1}), opening_cost=2.0)"),
]


@pytest.mark.parametrize(
    "cls,args,expected",
    [(Request, *case) for case in REQUEST_BUILDS] + [(Facility, *case) for case in FACILITY_BUILDS],
)
def test_constructors_check_and_convert_like_before(cls, args, expected):
    if expected.startswith(cls.__name__ + "("):
        built = cls(*args)
        assert repr(built) == expected
        assert type(getattr(built, FIELDS[cls][2])) is frozenset
    else:
        with pytest.raises(InvalidInstanceError) as error:
            cls(*args)
        assert str(error.value) == expected


def test_a_one_shot_generator_is_frozen_once():
    request = Request(0, 1, (e for e in [3, 2]))
    assert request.commodities == frozenset({2, 3})
    facility = Facility(0, 1, (e for e in [1]), 0.0)
    assert facility.configuration == frozenset({1})


# ---------------------------------------------------------------------------
# Submit: errors, coercion, and nothing changed by a rejected submit
# ---------------------------------------------------------------------------
def _session() -> OnlineSession:
    return OnlineSession(
        ALGORITHMS.build("pd-omflp"), uniform_line_metric(8), PowerCost(4, 1.0), rng=0
    )


def _int_of_none_message() -> str:
    """What ``int(None)`` raises; the wording moved between Python versions."""
    try:
        int(None)  # type: ignore[arg-type]
    except TypeError as error:
        return str(error)
    raise AssertionError("int(None) did not raise")


_INT_OF_NONE = _int_of_none_message()

#: (point, commodities, error type, message): what each rejected submit raised
#: before the envelope was trimmed.  The conversions run first (the point's,
#: then the commodities'), then Request's checks, then the instance's.
REJECTED_SUBMITS = [
    pytest.param(-1, [0], InvalidInstanceError, "request point must be non-negative, got -1",
                 id="negative-point"),
    pytest.param(8, [0], InvalidInstanceError, "request 0 is located at unknown point 8",
                 id="point-out-of-range"),
    pytest.param("x", [0], ValueError, "invalid literal for int() with base 10: 'x'",
                 id="point-string"),
    pytest.param(None, [0], TypeError, _INT_OF_NONE, id="point-none"),
    pytest.param(1, [], InvalidInstanceError, "request 0 demands no commodities",
                 id="empty-commodities"),
    pytest.param(1, [0, 4], InvalidInstanceError, "commodity 4 out of range [0, 4)",
                 id="commodity-out-of-range"),
    pytest.param(1, [-1], InvalidInstanceError, "commodity -1 out of range [0, 4)",
                 id="commodity-negative"),
    pytest.param(1, [5, -2], InvalidInstanceError, "commodity 5 out of range [0, 4)",
                 id="first-bad-commodity-in-set-order"),
    pytest.param(1, ["x"], ValueError, "invalid literal for int() with base 10: 'x'",
                 id="commodity-string"),
    pytest.param(1, [None], TypeError, _INT_OF_NONE, id="commodity-none"),
    pytest.param(1, 3, TypeError, "'int' object is not iterable", id="commodities-not-iterable"),
    pytest.param(-1, [], InvalidInstanceError, "request point must be non-negative, got -1",
                 id="point-sign-before-empty"),
    pytest.param(9, [7], InvalidInstanceError, "request 0 is located at unknown point 9",
                 id="point-range-before-commodity-range"),
    pytest.param(9, [], InvalidInstanceError, "request 0 demands no commodities",
                 id="empty-before-point-range"),
    pytest.param(-1, ["x"], ValueError, "invalid literal for int() with base 10: 'x'",
                 id="conversion-before-point-sign"),
    pytest.param("y", ["x"], ValueError, "invalid literal for int() with base 10: 'y'",
                 id="point-converted-first"),
]


@pytest.mark.parametrize("point,commodities,error,message", REJECTED_SUBMITS)
def test_a_rejected_submit_raises_what_it_raised_and_changes_nothing(
    point, commodities, error, message
):
    session = _session()
    with pytest.raises(error) as raised:
        session.submit(point, commodities)
    assert type(raised.value) is error and str(raised.value) == message
    assert session.num_requests == 0 and session.state.num_recorded == 0
    assert (session.opening_cost, session.connection_cost) == (0.0, 0.0)
    event = session.submit(1, [0])
    assert event.request_index == 0


def test_a_submit_after_finalize_is_refused():
    session = _session()
    session.submit(1, [0])
    session.finalize()
    with pytest.raises(AlgorithmError, match="^cannot submit to a finalized session$"):
        session.submit(1, [0])


def test_numpy_ints_are_coerced_to_int():
    event = _session().submit(np.int64(2), [np.int64(1), np.int32(0)])
    assert type(event.point) is int
    assert {type(commodity) for commodity in event.commodities} == {int}
    assert repr(event) == (
        "AssignmentEvent(request_index=0, point=2, commodities=frozenset({0, 1}), "
        "facility_ids=(0, 1), opening_cost_delta=2.0, connection_cost=0.0, "
        "opening_cost_so_far=2.0, connection_cost_so_far=0.0)"
    )


def test_floats_truncate_like_int():
    event = _session().submit(3.0, [1.0, True])
    assert type(event.point) is int
    assert repr(event) == (
        "AssignmentEvent(request_index=0, point=3, commodities=frozenset({1}), "
        "facility_ids=(0,), opening_cost_delta=1.0, connection_cost=0.0, "
        "opening_cost_so_far=1.0, connection_cost_so_far=0.0)"
    )


def test_a_one_shot_generator_submits_its_commodities():
    event = _session().submit(3, (e for e in [2, 1]))
    assert event.commodities == frozenset({1, 2})
    assert event.facility_ids == (0, 1)


def test_each_event_reports_the_running_totals():
    session = _session()
    before = (0.0, 0.0)
    for index, (point, commodities) in enumerate([(1, [0, 1]), (6, [2]), (1, [0]), (7, [3])]):
        event = session.submit(point, commodities)
        after = session.state.current_costs()
        assert after == (session.opening_cost, session.connection_cost)
        assert (event.opening_cost_so_far, event.connection_cost_so_far) == after
        assert event.opening_cost_delta == after[0] - before[0]
        assert event.connection_cost == after[1] - before[1]
        assert event.request_index == index
        before = after


# ---------------------------------------------------------------------------
# Instance.validate_request and normalize_configuration
# ---------------------------------------------------------------------------
#: (requests as (point, commodities), None or the error message).
INSTANCE_REQUESTS = [
    ([(1, [0, 3])], None),
    ([(8, [0])], "request 0 is located at unknown point 8"),
    ([(1, [4, 0])], "commodity 4 out of range [0, 4)"),
    ([(1, [-3])], "commodity -3 out of range [0, 4)"),
    ([(1, [0]), (2, [9])], "commodity 9 out of range [0, 4)"),
    ([(9, [9])], "request 0 is located at unknown point 9"),
    ([(1, [float("nan")])], "commodity nan out of range [0, 4)"),
    # Values the universe's range check lets through still pass.
    ([(1, [2.5])], None),
    ([(2.5, [0])], None),
]


@pytest.mark.parametrize("requests,message", INSTANCE_REQUESTS)
def test_validate_request_names_what_it_named(requests, message):
    sequence = RequestSequence(
        [Request(index, point, frozenset(c)) for index, (point, c) in enumerate(requests)]
    )

    def build():
        return Instance(uniform_line_metric(8), PowerCost(4, 1.0), sequence)

    if message is None:
        assert build().num_requests == len(requests)
    else:
        with pytest.raises(InvalidInstanceError) as error:
            build()
        assert str(error.value) == message


#: (configuration, sorted result, or (error type, message)).
CONFIGURATIONS = [
    ([2, 0], [0, 2]),
    ((np.int64(3), np.int32(1)), [1, 3]),
    ([True], [1]),
    ([1.9, 0.2], [0, 1]),
    ([], []),
    ((e for e in [3, 2]), [2, 3]),
    ([5, 1], (InvalidCostFunctionError, "commodity 5 out of range [0, 4)")),
    ([-1], (InvalidCostFunctionError, "commodity -1 out of range [0, 4)")),
    ([5, -2], (InvalidCostFunctionError, "commodity 5 out of range [0, 4)")),
    ([2**70], (InvalidCostFunctionError, f"commodity {2**70} out of range [0, 4)")),
    (["x"], (ValueError, "invalid literal for int() with base 10: 'x'")),
    ([None], (TypeError, _INT_OF_NONE)),
    (3, (TypeError, "'int' object is not iterable")),
]


@pytest.mark.parametrize("configuration,expected", CONFIGURATIONS)
def test_normalize_configuration_keeps_its_results_and_errors(configuration, expected):
    cost = PowerCost(4, 1.0)
    if isinstance(expected, list):
        config = cost.normalize_configuration(configuration)
        assert type(config) is frozenset and sorted(config) == expected
        assert {type(commodity) for commodity in config} <= {int}
    else:
        error, message = expected
        with pytest.raises(error) as raised:
            cost.normalize_configuration(configuration)
        assert str(raised.value) == message
