"""The versioned session-snapshot codec.

A :class:`SessionSnapshot` is the durable form of a mid-stream
:class:`~repro.api.session.OnlineSession`: everything needed to continue the
run **bit-identically** in a fresh process —

* the algorithm's ``state_dict`` (dual stores, bid histories — see
  :meth:`repro.algorithms.base.OnlineAlgorithm.state_dict`),
* the online state's mutation log (facilities in opening order, assignments
  in arrival order, the trace) from
  :meth:`repro.core.state.OnlineState.state_dict`,
* the exact NumPy bit-generator state (initial and current), and
* session metadata (seed, validation flag, instance name).

What is deliberately *not* stored: opening and connection costs and accel
caches (:class:`~repro.accel.tracker.NearestSetTracker`, the class-distance
columns of :class:`~repro.costs.classes.CostClassIndex`,
:class:`~repro.accel.history.BidHistoryBuffer` rows).  They are deterministic
folds/functions of static instance data and the stored mutation log, so
restore rebuilds them bit-for-bit — which also keeps snapshots small:
O(requests + facilities) instead of O(requests x points).  Facilities are
replayed one ``open`` at a time, each reading one distance column for all
its trackers; the request log is rebuilt in one array pass, its connection
costs re-summed in arrival order.  A log value that is not a JSON integer
or list, or a repeated commodity, raises
:class:`~repro.exceptions.SnapshotError` naming the row and the field.

An embedded spec is rebuilt only as far as restore needs it: a stock
``workload`` spec draws its environment (metric, cost, commodities) and
none of its requests (:func:`_restore_components`).

Snapshots serialize to *strict* JSON (``inf`` distances are string-encoded,
see :mod:`repro.utils.encoding`; NaN is refused) and carry a format name plus
version number so future codec changes fail loudly instead of restoring
garbage; input that is not a snapshot raises
:class:`~repro.exceptions.SnapshotError`.  Files are written compact: an
``indent`` would push :func:`json.dumps` off its C encoder, and
:meth:`SessionSnapshot.to_json` encodes the fields in place rather than the
deep copy :meth:`~SessionSnapshot.to_dict` makes, so an eviction costs one
encode of the session's state.  Indented files still load.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.algorithms.base import OnlineAlgorithm
from repro.api.components import WORKLOADS
from repro.api.spec import RunSpec
from repro.core.commodities import CommodityUniverse
from repro.core.instance import Instance
from repro.costs.base import FacilityCostFunction
from repro.exceptions import SnapshotError
from repro.metric.base import MetricSpace
from repro.utils.rng import ensure_rng
from repro.workloads import (
    clustered_workload,
    service_network_workload,
    uniform_workload,
    zipf_workload,
)
from repro.workloads.base import _draw_environment

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
        """Strict-JSON-compatible dictionary form (includes the format marker).

        An independent deep copy: callers may mutate or embed it freely.
        """
        data = asdict(self)
        data["format"] = SNAPSHOT_FORMAT
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionSnapshot":
        """Decode a snapshot dictionary, checking format and version."""
        if not isinstance(data, Mapping):
            raise SnapshotError(
                f"a session snapshot is a JSON object, not {type(data).__name__}"
            )
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
        kwargs = {
            key: value
            for key, value in data.items()
            if key not in ("format", "use_accel")
        }
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise SnapshotError(f"malformed session snapshot: {error}") from None

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Strict JSON text (``allow_nan=False`` guards the encoding contract).

        Byte for byte ``json.dumps(self.to_dict(), ...)``, but the fields are
        encoded in place instead of deep-copied first.
        """
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["format"] = SNAPSHOT_FORMAT
        return json.dumps(data, indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SessionSnapshot":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SnapshotError(f"session snapshot is not valid JSON: {error}") from None
        return cls.from_dict(data)

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
        temporary.write_text(self.to_json())
        os.replace(temporary, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SessionSnapshot":
        """Read a snapshot file; a damaged one raises a SnapshotError naming it."""
        try:
            return cls.from_json(Path(path).read_text())
        except (SnapshotError, UnicodeDecodeError) as error:
            raise SnapshotError(f"cannot load session snapshot {path}: {error}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SessionSnapshot(algorithm={self.algorithm!r}, "
            f"n={self.num_requests}, version={self.version})"
        )


def _online_spec(spec_data: Mapping[str, Any]) -> RunSpec:
    """Parse a session's RunSpec dict; only online-algorithm specs are accepted."""
    spec = RunSpec.from_dict(dict(spec_data))
    if spec.mode() != "online":
        raise SnapshotError(
            f"service sessions require an online algorithm spec, got the "
            f"offline solver {spec.algorithm.get('kind')!r}"
        )
    return spec


def components_from_spec(
    spec_data: Mapping[str, Any]
) -> Tuple[OnlineAlgorithm, Instance, Any]:
    """Rebuild ``(algorithm, instance, generator)`` from a RunSpec dict.

    Used by :class:`~repro.service.manager.SessionManager` to create a
    session and by ``repro trace record``.  Everything is drawn, requests
    included, from a generator seeded with the spec's seed; the returned
    generator has consumed exactly those draws, and threading it into the new
    session mirrors the :func:`repro.api.run.run` convention.  Snapshot
    restore rebuilds less (:func:`_restore_components`).  Only
    online-algorithm specs are accepted — a service session is a request
    stream.
    """
    spec = _online_spec(spec_data)
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


#: ``(builder, scenario kind)`` of the stock workload builders, each the eager
#: form of its scenario (:func:`repro.workloads.base.draw_workload`).
_SCENARIO_ADAPTERS = (
    (uniform_workload, "uniform"),
    (clustered_workload, "clustered"),
    (zipf_workload, "zipf"),
    (service_network_workload, "service-network"),
)


def _stock_scenario_kind(workload: Any) -> Optional[str]:
    """The scenario kind of a workload spec whose builder is a stock adapter.

    ``None`` for anything else: no workload, or a kind registered to another
    builder.
    """
    builder = WORKLOADS.get(workload["kind"]) if isinstance(workload, dict) else None
    return next((kind for adapter, kind in _SCENARIO_ADAPTERS if adapter is builder), None)


def _restore_components(
    spec_data: Mapping[str, Any]
) -> Tuple[OnlineAlgorithm, MetricSpace, FacilityCostFunction, CommodityUniverse]:
    """The algorithm and the environment a restore rebuilds from a RunSpec dict.

    A restored session needs the metric, the cost and the commodities, which
    the paper's online model fixes in advance, but no request: the snapshot
    carries the request log and the RNG state.  So a workload spec whose
    registered builder is a stock adapter draws its environment from the
    generator :func:`components_from_spec` seeds, with the same parameter
    check, and stops before the first request.  Every other spec goes
    through :func:`components_from_spec`: a scenario already builds only its
    environment, explicit components draw nothing for their requests, and a
    custom workload builder runs in full.
    """
    spec = _online_spec(spec_data)
    workload = spec.workload
    scenario_kind = _stock_scenario_kind(workload)
    if scenario_kind is None:
        algorithm, instance, _ = components_from_spec(spec_data)
        return algorithm, instance.metric, instance.cost_function, instance.commodities
    params = {key: value for key, value in workload.items() if key != "kind"}
    WORKLOADS.check_params(workload["kind"], params)
    # A spec's own "rng" wins over the seeded generator, as in RunSpec's
    # component builds.  The builders' defaults are their scenarios'.
    rng = params.pop("rng") if "rng" in params else ensure_rng(spec.seed)
    cost_function = params.pop("cost_function", None)
    _, environment, _, _ = _draw_environment(scenario_kind, rng, cost_function, params)
    return spec.build_algorithm(), environment.metric, environment.cost, environment.commodities
