"""The versioned session-snapshot codec.

A :class:`SessionSnapshot` is the durable form of a mid-stream
:class:`~repro.api.session.OnlineSession`: everything needed to continue the
run **bit-identically** in a fresh process —

* the algorithm's ``state_dict`` (dual stores, bid histories, helper facility
  lists — see :meth:`repro.algorithms.base.OnlineAlgorithm.state_dict`),
* the online state's mutation log (facilities in opening order, assignments
  in arrival order, the trace) from
  :meth:`repro.core.state.OnlineState.state_dict`,
* the exact NumPy bit-generator state (initial and current), and
* session metadata (seed, validation flag, instance name).

What is deliberately *not* stored: opening costs and accel caches
(:class:`~repro.accel.tracker.NearestSetTracker`,
:class:`~repro.accel.classes.ClassDistanceIndex`,
:class:`~repro.accel.history.BidHistoryBuffer` rows).  They are deterministic
folds/functions of static instance data and the stored mutation log, so
restore rebuilds them bit-for-bit by replay — which also keeps snapshots
small: O(requests + facilities) instead of O(requests x points).

Snapshots serialize to *strict* JSON (``inf`` distances are string-encoded,
see :mod:`repro.utils.encoding`) and carry a format name plus version number
so future codec changes fail loudly instead of restoring garbage.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.algorithms.base import OnlineAlgorithm
from repro.api.spec import RunSpec
from repro.core.instance import Instance
from repro.exceptions import SnapshotError
from repro.utils.rng import ensure_rng

__all__ = ["SessionSnapshot", "components_from_spec"]

#: Format marker embedded in every serialized snapshot.
SNAPSHOT_FORMAT = "repro-session-snapshot"

#: Current codec version (bump on breaking changes to the state shapes).
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class SessionSnapshot:
    """A restorable point-in-time capture of one streaming session.

    Instances are produced by :meth:`repro.api.session.OnlineSession.snapshot`
    and consumed by :meth:`~repro.api.session.OnlineSession.restore`; the
    ``to_dict``/``from_dict``/``to_json``/``from_json``/``save``/``load``
    methods move them across process and machine boundaries.
    """

    algorithm: str
    algorithm_state: Dict[str, Any]
    state: Dict[str, Any]
    seed: Optional[int]
    initial_rng_state: Dict[str, Any]
    rng_state: Dict[str, Any]
    validate: bool
    instance_name: str
    runtime_seconds: float
    num_requests: int
    spec: Optional[Dict[str, Any]] = None
    #: Resume point of the driving scenario stream, when the session was
    #: scenario-backed (see ScenarioSession.snapshot).  Optional with a
    #: default, so pre-scenario snapshots keep loading unchanged.
    scenario_state: Optional[Dict[str, Any]] = None
    #: Telemetry sink state (probe specs + probe states, see
    #: :meth:`repro.telemetry.sink.TelemetrySink.state_dict`) when the session
    #: had telemetry attached.  Optional with a default, so pre-telemetry
    #: snapshots keep loading unchanged.
    telemetry: Optional[Dict[str, Any]] = None
    version: int = SNAPSHOT_VERSION

    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        """Whether the captured session was recording trace events."""
        return bool(self.state.get("trace", {}).get("enabled", False))

    # ------------------------------------------------------------------
    # Serialized forms
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON-compatible dictionary form (includes the format marker)."""
        data = asdict(self)
        data["format"] = SNAPSHOT_FORMAT
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionSnapshot":
        """Decode a snapshot dictionary, checking format and version."""
        if data.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"not a session snapshot (format={data.get('format')!r}, "
                f"expected {SNAPSHOT_FORMAT!r})"
            )
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version!r}; this build reads "
                f"version {SNAPSHOT_VERSION}"
            )
        # Snapshots written while a scan-based hot path still existed carry
        # a session-level "use_accel" flag.  Both paths computed the same
        # facility state, so the flag is ignored (the reference *algorithm*
        # state is refused by the algorithm's own load_state_dict).
        fields = {
            key: value
            for key, value in data.items()
            if key not in ("format", "use_accel")
        }
        try:
            return cls(**fields)
        except TypeError as error:
            raise SnapshotError(f"malformed session snapshot: {error}") from None

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Strict JSON text (``allow_nan=False`` guards the encoding contract)."""
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SessionSnapshot":
        return cls.from_dict(json.loads(text))

    @classmethod
    def coerce(
        cls, value: Union["SessionSnapshot", Mapping[str, Any], str]
    ) -> "SessionSnapshot":
        """Accept a snapshot object, its dict form, or its JSON text."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_json(value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise SnapshotError(
            f"cannot interpret {type(value).__name__} as a session snapshot"
        )

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the snapshot as JSON to ``path`` (parents created as needed).

        The write is atomic (temp file + ``os.replace``): a crash mid-write
        must not corrupt the only durable copy of an evicted session.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(path.name + ".tmp")
        temporary.write_text(self.to_json(indent=2))
        os.replace(temporary, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SessionSnapshot":
        return cls.from_json(Path(path).read_text())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionSnapshot(algorithm={self.algorithm!r}, "
            f"n={self.num_requests}, version={self.version})"
        )


def components_from_spec(
    spec_data: Mapping[str, Any]
) -> Tuple[OnlineAlgorithm, Instance, Any]:
    """Rebuild ``(algorithm, instance, generator)`` from a RunSpec dict.

    Used both by :class:`~repro.service.manager.SessionManager` (session
    creation) and by snapshot restore: the instance is rebuilt with a
    generator seeded exactly as at creation time, so metric/cost components
    that draw randomness come back bit-identical.  The returned generator has
    consumed exactly the instance-building draws — threading it into a new
    session mirrors the :func:`repro.api.run.run` convention (restore ignores
    it and installs the snapshot's RNG state instead).  Only online-algorithm
    specs are accepted — a service session is a request stream.
    """
    spec = RunSpec.from_dict(dict(spec_data))
    if spec.mode() != "online":
        raise SnapshotError(
            f"service sessions require an online algorithm spec, got the "
            f"offline solver {spec.algorithm.get('kind')!r}"
        )
    if spec.scenario is not None:
        # Scenario-backed sessions: the environment comes from the scenario's
        # deterministic environment child seed (never consuming arrival
        # draws), and the algorithm generator from its own child seed.
        from repro.scenarios.run import scenario_session_components

        algorithm, instance, generator, _ = scenario_session_components(spec)
        return algorithm, instance, generator
    generator = ensure_rng(spec.seed)
    instance = spec.build_instance(generator)
    algorithm = spec.build_algorithm()
    return algorithm, instance, generator
