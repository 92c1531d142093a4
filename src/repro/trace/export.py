"""Trace payload export (Chrome trace-event JSON) and summarization.

:func:`chrome_trace` converts a :meth:`~repro.trace.tracer.Tracer.to_payload`
payload into the Chrome trace-event format that ``ui.perfetto.dev`` (and
``chrome://tracing``) load directly.  Two clock modes:

* ``clock="wall"`` — timestamps/durations from the profiling wall clock
  (what you open in Perfetto to see where time went);
* ``clock="event"`` — timestamps/durations are deterministic event-clock
  ticks, so the exported file is byte-identical across same-seed runs
  (what CI diffs and ``tests/test_trace.py`` pin).

:func:`summarize_trace` computes the ``repro trace summarize`` tables:
whole-run per-phase aggregates (count/total/percentiles, from the tracer's
fold-everything aggregates), per-phase *self time* (span time minus child
span time, over the retained detail spans), and the top-N slowest retained
spans.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.trace.span import Span
from repro.trace.tracer import TraceError, validate_payload

__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "summarize_trace",
    "render_summary",
]

#: µs per second (Chrome trace-event timestamps are microseconds).
_US = 1_000_000.0


def _thread_ids(spans: List[Span]) -> Dict[Optional[str], int]:
    """Map shard tags to Chrome thread ids: main process = tid 0, shards
    numbered in sorted-tag order (deterministic, not first-seen order)."""
    tids: Dict[Optional[str], int] = {None: 0}
    for tag in sorted({s.shard for s in spans if s.shard is not None}):
        tids[tag] = len(tids)
    return tids


def chrome_trace(payload: Mapping[str, Any], *, clock: str = "wall") -> Dict[str, Any]:
    """Convert a trace payload into a Chrome trace-event JSON object."""
    if clock not in ("wall", "event"):
        raise TraceError(f"clock must be 'wall' or 'event', got {clock!r}")
    payload = validate_payload(payload)
    spans = [Span.from_dict(data) for data in payload["spans"]]
    tids = _thread_ids(spans)

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for tag, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": "main" if tag is None else f"shard:{tag}"},
            }
        )

    if clock == "wall":
        starts = [s.wall_start for s in spans if s.wall_start > 0.0]
        origin = min(starts) if starts else 0.0
    for span in spans:
        if clock == "wall":
            ts = (span.wall_start - origin) * _US if span.wall_start > 0.0 else 0.0
            dur = span.wall_duration * _US
        else:
            ts = float(span.event_start)
            dur = float(max(span.event_end - span.event_start, 1))
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "ordinal": span.ordinal,
        }
        if span.shard is not None:
            args["shard"] = span.shard
        args.update(span.attributes)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": 1,
                "tid": tids[span.shard],
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": payload["format"],
            "version": payload["version"],
            "clock": clock,
            "meta": dict(payload["meta"]),
        },
    }


def validate_chrome_trace(data: Mapping[str, Any]) -> int:
    """Validate the Chrome trace-event schema; returns the event count.

    Checks the shape Perfetto's JSON importer requires: a ``traceEvents``
    list whose entries carry ``name``/``ph``/``pid``/``tid``, timestamps on
    every non-metadata event, and a ``dur`` on every complete (``"X"``)
    event.  Used by the CLI after export and by the CI trace smoke step.
    """
    if not isinstance(data, Mapping):
        raise TraceError("chrome trace must be a JSON object")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise TraceError("chrome trace must carry a 'traceEvents' list")
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise TraceError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise TraceError(f"traceEvents[{i}] is missing {key!r}")
        ph = event["ph"]
        if ph == "M":
            continue
        if "ts" not in event:
            raise TraceError(f"traceEvents[{i}] ({event['name']!r}) is missing 'ts'")
        if ph == "X" and "dur" not in event:
            raise TraceError(
                f"traceEvents[{i}] ({event['name']!r}) is a complete event without 'dur'"
            )
    return len(events)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def _self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-phase self time over the retained spans: each span's wall
    duration minus its direct children's, aggregated by phase name."""
    child_total: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] = (
                child_total.get(span.parent_id, 0.0) + span.wall_duration
            )
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = table.setdefault(
            span.name, {"spans": 0, "total_seconds": 0.0, "self_seconds": 0.0}
        )
        entry["spans"] += 1
        entry["total_seconds"] += span.wall_duration
        entry["self_seconds"] += max(
            span.wall_duration - child_total.get(span.span_id, 0.0), 0.0
        )
    return table


def summarize_trace(payload: Mapping[str, Any], *, top: int = 10) -> Dict[str, Any]:
    """The ``repro trace summarize`` tables, as strict-JSON data."""
    payload = validate_payload(payload)
    spans = [Span.from_dict(data) for data in payload["spans"]]
    slowest = sorted(spans, key=lambda s: (-s.wall_duration, s.span_id))[: max(top, 0)]
    return {
        "meta": dict(payload["meta"]),
        "phases": {name: dict(stats) for name, stats in payload["phases"].items()},
        "self_time": _self_times(spans),
        "slowest_spans": [
            {
                "name": s.name,
                "category": s.category,
                "ordinal": s.ordinal,
                "span_id": s.span_id,
                "shard": s.shard,
                "wall_duration": s.wall_duration,
            }
            for s in slowest
        ],
    }


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}µs"


def render_summary(summary: Mapping[str, Any]) -> str:
    """Human-readable text rendering of :func:`summarize_trace` output."""
    meta = summary["meta"]
    lines: List[str] = [
        "trace summary",
        (
            f"  retained spans: {meta['spans_retained']}  dropped: {meta['dropped_spans']}"
            f"  event clock: {meta['event_clock']}  detail stride: {meta['detail_stride']}"
        ),
        "",
        "phase aggregates (all observations)",
        f"  {'phase':<28} {'count':>8} {'total':>10} {'mean':>10} {'p50':>10} {'p95':>10} {'p99':>10}",
    ]
    for name, stats in summary["phases"].items():
        count = stats.get("count", 0)
        total = stats.get("total_seconds")
        mean = (total / count) if (total is not None and count) else None
        lines.append(
            f"  {name:<28} {count:>8} {_fmt_seconds(total):>10} {_fmt_seconds(mean):>10}"
            f" {_fmt_seconds(stats.get('p50')):>10} {_fmt_seconds(stats.get('p95')):>10}"
            f" {_fmt_seconds(stats.get('p99')):>10}"
        )
    self_time = summary["self_time"]
    if self_time:
        lines += [
            "",
            "self time (retained detail spans)",
            f"  {'phase':<28} {'spans':>8} {'total':>10} {'self':>10}",
        ]
        for name in sorted(
            self_time, key=lambda n: -self_time[n]["self_seconds"]
        ):
            entry = self_time[name]
            lines.append(
                f"  {name:<28} {entry['spans']:>8} {_fmt_seconds(entry['total_seconds']):>10}"
                f" {_fmt_seconds(entry['self_seconds']):>10}"
            )
    slowest = summary["slowest_spans"]
    if slowest:
        lines += ["", f"top {len(slowest)} slowest retained spans"]
        for s in slowest:
            shard = f"  shard={s['shard']}" if s.get("shard") else ""
            lines.append(
                f"  {_fmt_seconds(s['wall_duration']):>10}  {s['name']}"
                f" (ordinal={s['ordinal']}, span={s['span_id']}){shard}"
            )
    return "\n".join(lines) + "\n"


def write_json(path: str, data: Mapping[str, Any], *, sort_keys: bool = True) -> None:
    """Write strict JSON with a stable layout (the byte-stability surface).

    Missing parent directories are created first.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")
