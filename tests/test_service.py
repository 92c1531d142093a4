"""The multi-session service layer: SessionManager, wire protocol, CLI serve.

Pins the service-level acceptance contract: a manager hosts several named
concurrent sessions created from RunSpec dicts and routes interleaved
submits without cross-talk; eviction to disk and transparent reload is
bit-identical to staying resident; and the JSON line protocol works
end-to-end through the real ``repro serve`` CLI subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.session import AssignmentEvent, OnlineSession
from repro.exceptions import ServiceError, SnapshotError, UnknownComponentError
from repro.service import ServiceProtocol, SessionManager, components_from_spec

REPO_ROOT = Path(__file__).resolve().parent.parent


def _spec(seed: int, *, num_requests: int = 6) -> dict:
    return {
        "algorithm": "rand-omflp",
        "workload": {
            "kind": "uniform",
            "num_requests": num_requests,
            "num_commodities": 4,
            "num_points": 10,
        },
        "seed": seed,
    }


def _explicit_spec(seed: int = 0) -> dict:
    return {
        "algorithm": "pd-omflp",
        "metric": {"kind": "uniform-line", "num_points": 8},
        "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
        "requests": [],
        "seed": seed,
    }


def _reference_session(spec: dict) -> OnlineSession:
    """An unmanaged session built exactly as SessionManager builds one."""
    algorithm, instance, generator = components_from_spec(spec)
    return OnlineSession(
        algorithm,
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=generator,
    )


STREAM_A = [(1, [0, 1]), (6, [2]), (2, [0, 3]), (4, [1, 2]), (0, [3])]
STREAM_B = [(7, [3]), (3, [0, 2]), (5, [1]), (1, [0, 1, 2, 3]), (6, [0])]


# ---------------------------------------------------------------------------
# SessionManager
# ---------------------------------------------------------------------------
def test_manager_hosts_concurrent_sessions_without_cross_talk():
    """Interleaved submits to two named sessions equal two isolated runs."""
    manager = SessionManager()
    manager.create("a", _spec(3))
    manager.create("b", _spec(4))
    solo_a = _reference_session(_spec(3))
    solo_b = _reference_session(_spec(4))

    for (point_a, comms_a), (point_b, comms_b) in zip(STREAM_A, STREAM_B):
        event_a = manager.submit("a", point_a, comms_a)
        event_b = manager.submit("b", point_b, comms_b)
        assert event_a == solo_a.submit(point_a, comms_a)
        assert event_b == solo_b.submit(point_b, comms_b)

    record_a = manager.finalize("a")
    record_b = manager.finalize("b")
    assert record_a.total_cost == solo_a.finalize().total_cost
    assert record_b.total_cost == solo_b.finalize().total_cost
    assert manager.status("a")["finalized"] is True


def test_manager_eviction_roundtrip_is_bit_identical(tmp_path):
    """A session bounced through disk mid-stream matches an isolated run."""
    manager = SessionManager(snapshot_dir=tmp_path)
    manager.create("durable", _spec(9))
    solo = _reference_session(_spec(9))

    events = [manager.submit("durable", p, c) for p, c in STREAM_A[:2]]
    path = manager.evict("durable")
    assert path.exists()
    assert manager.status("durable")["evicted"] is True
    # Transparent reload on the next submit.
    events += [manager.submit("durable", p, c) for p, c in STREAM_A[2:]]
    solo_events = [solo.submit(p, c) for p, c in STREAM_A]
    assert events == solo_events
    assert manager.finalize("durable").total_cost == solo.finalize().total_cost
    assert not path.exists()  # finalize cleans the snapshot file


def test_manager_lru_eviction_under_capacity_pressure(tmp_path):
    manager = SessionManager(snapshot_dir=tmp_path, max_live_sessions=1)
    manager.create("old", _explicit_spec(0))
    manager.create("new", _explicit_spec(1))
    status_old = manager.status("old")
    assert status_old["live"] is False and status_old.get("evicted") is True
    assert manager.status("new")["live"] is True
    # Touching the evicted one swaps residency.
    manager.submit("old", 1, [0])
    assert manager.status("old")["live"] is True
    assert manager.status("new")["live"] is False
    assert sorted(manager.names()) == ["new", "old"]


def test_manager_rejects_bad_inputs(tmp_path):
    manager = SessionManager()
    with pytest.raises(ServiceError, match="invalid session name"):
        manager.create("../escape", _explicit_spec())
    with pytest.raises(ServiceError, match="seed"):
        manager.create("s", {k: v for k, v in _explicit_spec().items() if k != "seed"})
    with pytest.raises(SnapshotError, match="online"):
        manager.create("s", dict(_explicit_spec(), algorithm="greedy"))
    manager.create("s", _explicit_spec())
    with pytest.raises(ServiceError, match="already exists"):
        manager.create("s", _explicit_spec())
    with pytest.raises(ServiceError, match="unknown session"):
        manager.submit("nope", 0, [0])
    with pytest.raises(ServiceError, match="snapshot_dir"):
        manager.evict("s")
    with pytest.raises(ServiceError, match="unknown session"):
        manager.close("nope")
    manager.close("s")
    with pytest.raises(ServiceError, match="needs a snapshot_dir"):
        SessionManager(max_live_sessions=2)
    with pytest.raises(ServiceError, match="positive"):
        SessionManager(snapshot_dir=tmp_path, max_live_sessions=0)


def test_manager_rejects_traversal_names_on_every_operation(tmp_path):
    """Name validation is a chokepoint, not a create()-only courtesy."""
    manager = SessionManager(snapshot_dir=tmp_path)
    manager.create("s", _explicit_spec())
    for operation in (
        lambda: manager.submit("../escape", 0, [0]),
        lambda: manager.status("../escape"),
        lambda: manager.close("../escape"),
        lambda: manager.evict("../escape"),
        lambda: manager.snapshot("../escape"),
    ):
        with pytest.raises(ServiceError, match="invalid session name"):
            operation()


def test_restore_rejects_mismatched_algorithm(tmp_path):
    """A snapshot remembers its algorithm and refuses to restore onto another."""
    from repro.algorithms.online.always_large import AlwaysLargeGreedy

    algorithm, instance, generator = components_from_spec(_explicit_spec())
    session = OnlineSession(
        algorithm,
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=generator,
    )
    session.submit(1, [0])
    snapshot = session.snapshot()
    with pytest.raises(SnapshotError, match="pd-omflp"):
        OnlineSession.restore(
            snapshot,
            algorithm=AlwaysLargeGreedy(),
            metric=instance.metric,
            cost=instance.cost_function,
        )


def test_manager_finalized_sessions_reject_submits():
    manager = SessionManager()
    manager.create("s", _explicit_spec())
    manager.submit("s", 1, [0])
    manager.finalize("s")
    with pytest.raises(ServiceError, match="finalized"):
        manager.submit("s", 2, [1])
    manager.close("s")
    assert manager.names() == []


# ---------------------------------------------------------------------------
# Wire protocol (in-process)
# ---------------------------------------------------------------------------
def test_protocol_lifecycle_and_error_responses(tmp_path):
    protocol = ServiceProtocol(SessionManager(snapshot_dir=tmp_path))

    assert protocol.handle({"op": "ping"})["pong"] is True
    created = protocol.handle({"op": "create", "name": "s", "spec": _explicit_spec()})
    assert created["ok"] and created["session"]["name"] == "s"

    submitted = protocol.handle(
        {"op": "submit", "name": "s", "point": 1, "commodities": [0, 2]}
    )
    assert submitted["ok"]
    event = AssignmentEvent.from_dict(submitted["event"])
    assert event.request_index == 0 and event.point == 1

    snapshot = protocol.handle({"op": "snapshot", "name": "s"})
    assert snapshot["ok"] and snapshot["snapshot"]["num_requests"] == 1

    evicted = protocol.handle({"op": "evict", "name": "s"})
    assert evicted["ok"] and Path(evicted["path"]).exists()
    assert protocol.handle({"op": "list"})["sessions"] == ["s"]

    finalized = protocol.handle({"op": "finalize", "name": "s"})
    assert finalized["ok"] and finalized["record"]["num_requests"] == 1

    closed = protocol.handle({"op": "close", "name": "s"})
    assert closed["ok"]

    # Error shapes: unknown op, missing field, unknown session, bad JSON.
    assert protocol.handle({"op": "warp"})["error_type"] == "ReproError"
    assert "needs a 'name'" in protocol.handle({"op": "submit"})["error"]
    assert (
        protocol.handle({"op": "status", "name": "gone"})["error_type"] == "ServiceError"
    )
    assert json.loads(protocol.handle_line("{not json"))["error_type"] == "JSONDecodeError"
    assert json.loads(protocol.handle_line('{"op": "ping"}'))["ok"] is True

    down = protocol.handle({"op": "shutdown"})
    assert down["shutdown"] is True


def test_protocol_registry_typo_gets_suggestion():
    protocol = ServiceProtocol(SessionManager())
    response = protocol.handle(
        {"op": "create", "name": "s", "spec": dict(_explicit_spec(), algorithm="pd-omfpl")}
    )
    assert response["ok"] is False
    assert "did you mean" in response["error"] and "pd-omflp" in response["error"]


@pytest.mark.parametrize("key", ["use_acel", "use_accel"])
def test_protocol_create_rejects_unknown_algorithm_params(key):
    """A typo'd (or removed) algorithm parameter is a ReproError naming the
    key, not a raw TypeError from the algorithm constructor."""
    protocol = ServiceProtocol(SessionManager())
    spec = dict(_explicit_spec(), algorithm={"kind": "pd-omflp", key: False})
    response = protocol.handle({"op": "create", "name": "s", "spec": spec})
    assert response["ok"] is False
    assert response["error_type"] == "ReproError"
    assert f"unknown parameter(s) '{key}'" in response["error"]
    assert protocol.handle({"op": "list"})["sessions"] == []


@pytest.mark.parametrize(
    "field,value", [("validate", "false"), ("trace", "no"), ("trace", 1), ("validate", None)]
)
def test_protocol_create_requires_boolean_flags(field, value):
    protocol = ServiceProtocol(SessionManager())
    response = protocol.handle(
        {"op": "create", "name": "s", "spec": _explicit_spec(), field: value}
    )
    assert response["ok"] is False
    assert f"field {field!r} must be a JSON boolean" in response["error"]
    assert protocol.handle({"op": "list"})["sessions"] == []


def test_protocol_create_flags_apply_and_default():
    protocol = ServiceProtocol(SessionManager())
    for name, flags in (("set", {"trace": True, "validate": False}), ("default", {})):
        created = protocol.handle(
            dict({"op": "create", "name": name, "spec": _explicit_spec()}, **flags)
        )
        assert created["ok"]
    snapshot = protocol.handle({"op": "snapshot", "name": "set"})["snapshot"]
    assert snapshot["state"]["trace"]["enabled"] is True and snapshot["validate"] is False
    snapshot = protocol.handle({"op": "snapshot", "name": "default"})["snapshot"]
    assert snapshot["state"]["trace"]["enabled"] is False and snapshot["validate"] is True


def test_protocol_status_and_metrics_carry_telemetry(tmp_path):
    """Telemetry-aware observability over the wire, through real JSON text.

    A session created with ``"telemetry": true`` reports its probe summaries
    in ``status``; the manager-wide ``metrics`` op reports live counters and
    the per-session roll-up.  Everything round-trips ``handle_line`` (i.e. is
    strict JSON), and sessions without telemetry stay telemetry-free.
    """
    protocol = ServiceProtocol(SessionManager(snapshot_dir=tmp_path))

    created = protocol.handle(
        {"op": "create", "name": "probed", "spec": _spec(5), "telemetry": True}
    )
    assert created["ok"]
    protocol.handle({"op": "create", "name": "plain", "spec": _spec(6)})
    for point, commodities in STREAM_A[:3]:
        assert protocol.handle(
            {"op": "submit", "name": "probed", "point": point, "commodities": commodities}
        )["ok"]

    status = json.loads(
        protocol.handle_line(json.dumps({"op": "status", "name": "probed"}))
    )["session"]
    assert status["num_requests"] == 3
    assert status["runtime_seconds"] > 0.0
    telemetry = status["telemetry"]
    assert set(telemetry) == {
        "cost-decomposition",
        "opening-rate",
        "latency",
        "competitive-ratio",
    }
    assert telemetry["cost-decomposition"]["num_requests"] == 3
    assert telemetry["cost-decomposition"]["total_cost"] == pytest.approx(
        status["total_cost"]
    )
    assert telemetry["latency"]["reservoir_size"] == 3
    assert "telemetry" not in protocol.handle({"op": "status", "name": "plain"})["session"]

    metrics = json.loads(protocol.handle_line(json.dumps({"op": "metrics"})))["metrics"]
    assert metrics["counters"]["created"] == 2
    assert metrics["counters"]["requests"] == 3
    assert metrics["sessions_live"] == 2
    assert metrics["uptime_seconds"] >= 0.0
    assert "requests_per_second" in metrics
    assert metrics["sessions"]["probed"]["num_requests"] == 3
    assert "telemetry" in metrics["sessions"]["probed"]
    assert "telemetry" not in metrics["sessions"]["plain"]

    # Eviction bounces the sink through disk; the metrics continue exactly.
    before = dict(telemetry["cost-decomposition"])
    protocol.handle({"op": "evict", "name": "probed"})
    point, commodities = STREAM_A[3]
    protocol.handle(
        {"op": "submit", "name": "probed", "point": point, "commodities": commodities}
    )
    after = protocol.handle({"op": "status", "name": "probed"})["session"]["telemetry"]
    assert after["cost-decomposition"]["num_requests"] == before["num_requests"] + 1
    reloaded = protocol.handle({"op": "metrics"})["metrics"]
    assert reloaded["counters"]["evictions"] == 1
    assert reloaded["counters"]["reloads"] == 1


def test_protocol_metrics_carry_per_op_latency_aggregates(tmp_path):
    """The ``metrics`` op's tracer-backed ``ops`` block, through real JSON.

    Every dispatched wire op folds into a ``service.<op>`` phase on the
    protocol's (default-on) tracer; ``metrics`` reports count/total/p50/p99
    per op, covering *all* handled ops — including failed ones — not just
    the span buffer's tail.  ``tracer=False`` removes the block entirely.
    """
    protocol = ServiceProtocol(SessionManager(snapshot_dir=tmp_path))
    assert protocol.tracer is not None

    protocol.handle({"op": "create", "name": "s", "spec": _spec(5)})
    for point, commodities in STREAM_A[:4]:
        protocol.handle(
            {"op": "submit", "name": "s", "point": point, "commodities": commodities}
        )
    protocol.handle({"op": "status", "name": "s"})
    assert protocol.handle({"op": "status", "name": "gone"})["ok"] is False

    response = json.loads(protocol.handle_line(json.dumps({"op": "metrics"})))
    assert response["ok"]
    ops = response["metrics"]["ops"]
    assert ops["service.create"]["count"] == 1
    assert ops["service.submit"]["count"] == 4
    # Failed dispatches still count: both status calls folded.
    assert ops["service.status"]["count"] == 2
    for stats in ops.values():
        assert stats["count"] >= 1
        assert stats["total_seconds"] >= 0.0
        assert set(stats) >= {"count", "total_seconds", "mean_seconds", "p50", "p99"}
    # The in-flight metrics op folds when its span closes: a second metrics
    # call sees the first one.
    again = protocol.handle({"op": "metrics"})["metrics"]["ops"]
    assert again["service.metrics"]["count"] == 1

    # Correlation ids: wire-op spans carry the session name.
    submit_spans = [
        span for span in protocol.tracer.spans() if span.name == "service.submit"
    ]
    assert submit_spans
    assert all(span.attributes["session"] == "s" for span in submit_spans)
    ordinals = [
        span.ordinal
        for span in protocol.tracer.spans()
        if span.name.startswith("service.")
    ]
    assert ordinals == sorted(ordinals)  # op sequence numbers are monotone

    untraced = ServiceProtocol(SessionManager(), tracer=False)
    assert untraced.tracer is None
    assert "ops" not in untraced.handle({"op": "metrics"})["metrics"]


def test_protocol_telemetry_accepts_probe_lists_and_rejects_typos(tmp_path):
    protocol = ServiceProtocol(SessionManager(snapshot_dir=tmp_path))
    created = protocol.handle(
        {
            "op": "create",
            "name": "s",
            "spec": _spec(1),
            "telemetry": ["opening-rate", {"kind": "latency", "capacity": 4}],
        }
    )
    assert created["ok"]
    protocol.handle({"op": "submit", "name": "s", "point": 1, "commodities": [0]})
    telemetry = protocol.handle({"op": "status", "name": "s"})["session"]["telemetry"]
    assert sorted(telemetry) == ["latency", "opening-rate"]

    bad = protocol.handle(
        {"op": "create", "name": "t", "spec": _spec(2), "telemetry": ["opening-rte"]}
    )
    assert bad["ok"] is False and "did you mean" in bad["error"]


def test_cli_serve_in_process(tmp_path, monkeypatch, capsys):
    """The argparse `serve` branch wired to real streams (in-process)."""
    import io

    from repro.experiments.cli import main

    lines = [
        json.dumps({"op": "create", "name": "s", "spec": _explicit_spec()}),
        json.dumps({"op": "submit", "name": "s", "point": 1, "commodities": [0]}),
        "",  # blank lines are skipped
        json.dumps({"op": "shutdown"}),
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["serve", "--snapshot-dir", str(tmp_path), "--max-live-sessions", "2"]) == 0
    responses = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [r["ok"] for r in responses] == [True, True, True]
    assert responses[-1]["evicted"] == ["s"]
    assert (tmp_path / "s.session.json").exists()


# ---------------------------------------------------------------------------
# End to end: the real `repro serve` CLI over a pipe
# ---------------------------------------------------------------------------
def test_repro_serve_end_to_end(tmp_path):
    """Drive the JSON line protocol through the actual CLI subprocess."""
    state_dir = tmp_path / "state"
    messages = [
        {"op": "ping"},
        {"op": "create", "name": "east", "spec": _explicit_spec(0)},
        {"op": "create", "name": "west", "spec": _explicit_spec(1)},
        {"op": "submit", "name": "east", "point": 1, "commodities": [0, 2]},
        {"op": "submit", "name": "west", "point": 6, "commodities": [1]},
        {"op": "submit", "name": "east", "point": 2, "commodities": [3]},
        {"op": "list"},
        {"op": "finalize", "name": "west"},
        {"op": "shutdown"},
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--snapshot-dir",
            str(state_dir),
        ],
        input="\n".join(json.dumps(m) for m in messages) + "\n",
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    responses = [json.loads(line) for line in completed.stdout.strip().splitlines()]
    assert len(responses) == len(messages)
    assert all(r["ok"] for r in responses)

    # Two concurrent named sessions routed independently over the wire.
    east_events = [r["event"] for r in responses if r.get("name") == "east" and "event" in r]
    assert [e["request_index"] for e in east_events] == [0, 1]
    west_record = next(r["record"] for r in responses if "record" in r)
    assert west_record["num_requests"] == 1
    assert set(responses[6]["sessions"]) == {"east", "west"}

    # Shutdown persisted the still-live session for the next process.
    assert responses[-1]["shutdown"] is True and responses[-1]["evicted"] == ["east"]
    assert (state_dir / "east.session.json").exists()

    # A fresh manager (new process in spirit) resumes the evicted session.
    manager = SessionManager(snapshot_dir=state_dir)
    assert manager.status("east")["num_requests"] == 2
    event = manager.submit("east", 3, [1])
    assert event.request_index == 2
