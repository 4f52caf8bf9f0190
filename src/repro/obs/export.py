"""Render ``Collector`` snapshots in standard observability formats.

Two wire formats plus a human one:

:func:`to_prometheus`
    Prometheus text exposition format (version 0.0.4).  Counters get a
    ``dprle_`` namespace prefix and the conventional ``_total`` suffix;
    histograms are converted from this module's per-interval buckets to
    Prometheus' cumulative ``_bucket{le="..."}`` series with the
    mandatory ``+Inf`` bucket and ``_sum``/``_count`` children.  Metric
    names are sanitized (``.`` and other illegal characters become
    ``_``), so ``span_seconds.solve`` scrapes as
    ``dprle_span_seconds_solve``.

:func:`to_chrome_trace`
    Chrome trace event format (the JSON ``chrome://tracing`` /
    Perfetto / speedscope all read).  Every span becomes a complete
    event (``ph: "X"``) with microsecond ``ts``/``dur``; wall-clock
    nesting renders as the flame graph.  Subtrees grafted from worker
    processes by :meth:`Collector.absorb` (root span named
    ``worker…``) get their own ``tid`` so each worker renders as a
    separate track, and their timestamps — which are offsets from the
    *worker's* epoch, not the parent's — are re-based at the graft
    point.  Per-span CPU seconds and states visited ride along in
    ``args``.

:func:`validate_chrome_trace` is a dependency-free structural
validator for the trace document (the test suite round-trips exports
through it), and :func:`render_report` prints the human summary behind
``dprle obs report`` for ``dprle.obs/*`` snapshots.
"""

from __future__ import annotations

import re
from typing import Any

__all__ = [
    "to_prometheus",
    "to_chrome_trace",
    "validate_chrome_trace",
    "render_report",
]

_PROM_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_ILLEGAL.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"dprle_{sanitized}"


def _prom_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _metrics_of(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Accept either a full snapshot or a bare registry snapshot."""
    metrics = snapshot.get("metrics")
    if isinstance(metrics, dict):
        return metrics
    return snapshot


def to_prometheus(snapshot: dict[str, Any]) -> str:
    """Render a snapshot's metrics in Prometheus text exposition format."""
    metrics = _metrics_of(snapshot)
    lines: list[str] = []

    for name, value in (metrics.get("counters") or {}).items():
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")

    for name, value in (metrics.get("gauges") or {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")

    for name, snap in (metrics.get("histograms") or {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for key, count in (snap.get("buckets") or {}).items():
            cumulative += count
            le = "+Inf" if key == "inf" else key[3:]
            lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_value(snap.get('sum', 0.0))}")
        lines.append(f"{prom}_count {snap.get('count', 0)}")

    return "\n".join(lines) + "\n"


# -- Chrome trace event format ---------------------------------------------


def _span_args(span: dict[str, Any]) -> dict[str, Any]:
    args: dict[str, Any] = {}
    if span.get("cpu_s"):
        args["cpu_s"] = span["cpu_s"]
    if span.get("states_visited"):
        args["states_visited"] = span["states_visited"]
    for key, value in (span.get("attrs") or {}).items():
        args[key] = value
    for op, count in (span.get("operations") or {}).items():
        args[f"op.{op}"] = count
    return args


def to_chrome_trace(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Convert a snapshot's span tree to a Chrome trace event document.

    Returns a dict ready for ``json.dump``; load the result in
    Perfetto/``chrome://tracing`` to see the solve as a flame graph
    with one track per worker process.
    """
    events: list[dict[str, Any]] = []
    next_tid = [0]

    def thread_meta(tid: int, label: str) -> None:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )

    def walk(span: dict[str, Any], offset_us: float, tid: int) -> None:
        start_s = float(span.get("start_s", 0.0))
        ts = offset_us + start_s * 1e6
        event: dict[str, Any] = {
            "name": str(span.get("name", "?")),
            "cat": "dprle",
            "ph": "X",
            "ts": round(ts, 3),
            "dur": round(float(span.get("duration_s", 0.0)) * 1e6, 3),
            "pid": 0,
            "tid": tid,
        }
        args = _span_args(span)
        if args:
            event["args"] = args
        events.append(event)
        for child in span.get("children") or []:
            child_tid = tid
            child_offset = offset_us
            name = str(child.get("name", ""))
            child_start = float(child.get("start_s", 0.0))
            if name.startswith("worker"):
                # A subtree absorbed from a worker process: its own
                # track, and its timestamps count from its own epoch —
                # re-base them at the graft point.
                next_tid[0] += 1
                child_tid = next_tid[0]
                child_offset = ts
                thread_meta(child_tid, name)
            elif child_start < start_s:
                # Foreign epoch without a worker label (hand-absorbed
                # snapshot): still re-base so events stay ordered.
                child_offset = ts
            walk(child, child_offset, child_tid)

    trace = snapshot.get("trace")
    thread_meta(0, "main")
    if isinstance(trace, dict):
        walk(trace, 0.0, 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_EVENT_SCHEMA: dict[str, type] = {
    "name": str,
    "ph": str,
    "pid": int,
    "tid": int,
}


def validate_chrome_trace(doc: Any) -> bool:
    """Structurally validate a Chrome trace document.

    A dependency-free JSON-schema check: verifies the ``traceEvents``
    envelope and, for every event, the required fields and types of
    the trace event format (metadata ``M`` and complete ``X`` phases).
    Raises :class:`ValueError` on the first violation; returns True.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be an array")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} must be an object")
        for field, expected in _EVENT_SCHEMA.items():
            if field not in event:
                raise ValueError(f"{where} missing required field {field!r}")
            if not isinstance(event[field], expected) or isinstance(
                event[field], bool
            ):
                raise ValueError(
                    f"{where}.{field} must be {expected.__name__}"
                )
        phase = event["ph"]
        if phase not in ("X", "M"):
            raise ValueError(f"{where}.ph {phase!r} not supported")
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise ValueError(f"{where}.{field} must be a number")
                if value < 0:
                    raise ValueError(f"{where}.{field} must be >= 0")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where}.args must be an object")
    return True


# -- human-readable report --------------------------------------------------


def _walk_spans(span: dict[str, Any]) -> list[dict[str, Any]]:
    found = [span]
    for child in span.get("children") or []:
        found.extend(_walk_spans(child))
    return found


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f}s "
    return f"{value * 1e3:8.3f}ms"


def render_report(snapshot: dict[str, Any]) -> str:
    """Render a human summary of a stats JSON document."""
    schema = snapshot.get("schema", "?")
    lines = [f"schema: {schema}"]
    if snapshot.get("truncated"):
        dropped = snapshot.get("spans_dropped", "?")
        lines.append(f"WARNING: trace truncated ({dropped} spans dropped)")

    trace = snapshot.get("trace")
    spans = _walk_spans(trace) if isinstance(trace, dict) else []
    if spans:
        root = spans[0]
        lines.append(f"wall total: {float(root.get('duration_s', 0.0)):.3f}s")
        cpu_total = sum(float(s.get("cpu_s", 0.0)) for s in spans)
        if cpu_total:
            lines.append(f"cpu total (all spans): {cpu_total:.3f}s")

    metrics = _metrics_of(snapshot)
    histograms = metrics.get("histograms") or {}
    phase_rows: list[tuple[float, str, int]] = []
    for name, snap in histograms.items():
        if not name.startswith("span_seconds."):
            continue
        phase_rows.append(
            (float(snap.get("sum", 0.0)), name[13:], int(snap.get("count", 0)))
        )
    if phase_rows:
        lines.append("")
        lines.append("time by span (wall, inclusive):")
        for total, name, count in sorted(phase_rows, reverse=True):
            mean = total / count if count else 0.0
            lines.append(
                f"  {_format_seconds(total)}  {name:<24} "
                f"x{count}  (mean {mean * 1e3:.3f}ms)"
            )

    counters = metrics.get("counters") or {}
    interesting = {
        name: value
        for name, value in counters.items()
        if not name.startswith("span.")
    }
    if interesting:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(interesting.items()):
            lines.append(f"  {name:<36} {value}")

    gauges = metrics.get("gauges") or {}
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<36} {value:g}")

    return "\n".join(lines) + "\n"

