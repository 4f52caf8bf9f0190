"""Structured observability: spans, metrics, and solver telemetry.

The paper analyses the decision procedure by counting NFA states
visited (Sec. 3.5); this module generalizes that single counter into a
full observability layer so a slow solve can be *attributed* — subset
construction vs. Hopcroft minimization vs. bridge enumeration — and so
benchmark runs leave a machine-readable perf trajectory behind.

Three cooperating pieces:

**Spans** — :func:`span` opens a named, attributed node in a trace
tree::

    with obs.span("determinize", states_in=nfa.num_states) as sp:
        dfa = ...
        sp.set("states_out", dfa.num_states)

Spans nest; each records wall-clock duration, the NFA states visited
and high-level operations performed *while it was innermost*, plus any
attributes the instrumented code sets.  :func:`traced` is the decorator
form for whole functions.

**Metrics** — a :class:`MetricsRegistry` of counters, gauges, and
fixed-boundary histograms.  An active :class:`Collector` feeds it
automatically: per-operation counters (``op.<name>``), per-span-name
counts and duration histograms (``span.<name>``,
``span_seconds.<name>``), a global ``states_visited`` counter, and an
``automaton_states`` size histogram fed from span attributes whose key
ends in ``states`` / ``states_in`` / ``states_out``.

**Collection** — :func:`collect` activates a :class:`Collector` for a
``with`` block, contextvar-scoped (thread- and async-safe; concurrent
contexts never share a collector).  The collector exports
:meth:`~Collector.to_dict` / :meth:`~Collector.to_json` (see
``docs/OBSERVABILITY.md`` for the schema) and a human-readable
:meth:`~Collector.render_trace`.

When nothing is active every hook degenerates to one contextvar read —
a measured near-no-op (see ``tests/obs/test_overhead.py``), so the
instrumentation can live permanently in the hot paths.

Collectors stack freely: every active sink sees every event, so nested
``collect()`` scopes propagate counts to all ancestors.  The structured
journal (:mod:`repro.obs.journal`) is the other sink kind; it shares the
collector's span and metrics interface.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "SIZE_BUCKETS",
    "DURATION_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Collector",
    "absorb",
    "collect",
    "current_collector",
    "span",
    "traced",
    "visit_states",
    "count_operation",
    "increment_metric",
    "set_gauge",
    "observe_value",
    "progress",
    "event",
    # re-exported from the sibling modules (see bottom of file)
    "Journal",
    "journal_to",
    "to_prometheus",
    "to_chrome_trace",
    "validate_chrome_trace",
    "render_report",
    "diff_snapshots",
]


# -- metrics ----------------------------------------------------------------

#: Bucket boundaries for automaton sizes (states), in powers of two up
#: to the largest machines the benchmarks produce.
SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)

#: Bucket boundaries for span durations, in seconds (10 µs … 30 s).
DURATION_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.value}>"


class Gauge:
    """A value that can go up and down (e.g. worklist depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Gauge {self.value}>"


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    ``boundaries`` must be sorted ascending; an observation lands in the
    first bucket whose upper boundary is >= the value, or in the
    overflow (``+Inf``) bucket.  Bucket counts are per-interval, not
    cumulative.
    """

    __slots__ = ("boundaries", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, boundaries: tuple[float, ...] = DURATION_BUCKETS):
        self.boundaries = tuple(boundaries)
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict[str, Any]:
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.boundaries, self.bucket_counts)
        }
        buckets["inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bucket counts add elementwise when the boundary sets match
        (they always do for instruments produced by this module's
        fixed-boundary constants); otherwise only the scalar summary
        fields are merged and the foreign observations land in the
        overflow bucket, preserving ``count``/``sum`` totals.
        """
        incoming = list(snap.get("buckets", {}).values())
        if len(incoming) == len(self.bucket_counts):
            for i, value in enumerate(incoming):
                self.bucket_counts[i] += value
        else:
            self.bucket_counts[-1] += sum(incoming)
        self.count += snap.get("count", 0)
        self.total += snap.get("sum", 0.0)
        for field, pick in (("min", min), ("max", max)):
            other = snap.get(field)
            if other is None:
                continue
            current = getattr(self, field)
            setattr(
                self, field, other if current is None else pick(current, other)
            )

    def __repr__(self) -> str:
        return f"<Histogram count={self.count} sum={self.total:g}>"


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms.

    Instruments are created on first use (``registry.counter("x").inc()``)
    so call sites never pre-register anything.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, boundaries: tuple[float, ...] = DURATION_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(boundaries)
        return instrument

    def snapshot(self) -> dict[str, Any]:
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.snapshot() for k, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# -- spans ------------------------------------------------------------------


class Span:
    """One node of a trace tree.

    ``states_visited`` and ``operations`` cover the work done while
    this span was the *innermost* open one; descendants account for
    their own (use :meth:`total_states_visited` for the subtree sum).

    ``start`` is the span's open time as an offset (seconds) from its
    collector's epoch — spans of one collector share a timebase, which
    is what lets the Chrome-trace exporter lay them out on a timeline.
    ``cpu`` is the CPU time (``time.thread_time``) the opening thread
    spent inside the span; comparing it against ``duration`` separates
    compute-bound spans from ones waiting on the worker pool.
    """

    __slots__ = (
        "name", "attrs", "duration", "cpu", "start",
        "states_visited", "operations", "children",
    )

    def __init__(self, name: str, attrs: Optional[dict[str, Any]] = None):
        self.name = name
        self.attrs: dict[str, Any] = attrs or {}
        self.duration = 0.0
        self.cpu = 0.0
        self.start = 0.0
        self.states_visited = 0
        self.operations: dict[str, int] = {}
        self.children: list[Span] = []

    def total_states_visited(self) -> int:
        return self.states_visited + sum(
            child.total_states_visited() for child in self.children
        )

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "cpu_s": self.cpu,
            "states_visited": self.states_visited,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.operations:
            out["operations"] = dict(self.operations)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        out = cls(data["name"], dict(data.get("attrs", {})))
        out.duration = data.get("duration_s", 0.0)
        out.cpu = data.get("cpu_s", 0.0)
        out.start = data.get("start_s", 0.0)
        out.states_visited = data.get("states_visited", 0)
        out.operations = dict(data.get("operations", {}))
        out.children = [cls.from_dict(child) for child in data.get("children", [])]
        return out

    def render(self, indent: int = 0) -> str:
        parts = [f"{self.duration * 1000:.2f}ms"]
        if self.states_visited:
            parts.append(f"visited={self.states_visited}")
        parts.extend(f"{k}={v}" for k, v in self.attrs.items())
        lines = ["  " * indent + f"{self.name}  [{' '.join(parts)}]"]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} {self.duration * 1000:.2f}ms "
            f"children={len(self.children)}>"
        )


def _iter_spans(root: Span) -> Iterator[Span]:
    """All strict descendants of ``root``, depth first."""
    for child in root.children:
        yield child
        yield from _iter_spans(child)


class SpanHandle:
    """What an active ``with span(...)`` block yields: an attribute
    setter fanning out to the span object of every active collector."""

    __slots__ = ("_spans",)

    def __init__(self, spans: list[Span]):
        self._spans = spans

    def set(self, key: str, value: Any) -> None:
        for target in self._spans:
            target.attrs[key] = value


class _NoopSpanHandle:
    """Shared handle for disabled spans; ``set`` discards silently."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass


_NOOP_HANDLE = _NoopSpanHandle()


class Collector:
    """Accumulates a trace tree plus a metrics registry.

    ``max_recorded_spans`` bounds trace memory on pathological runs
    (e.g. a 100k-combination bridge enumeration): beyond the cap, spans
    are still timed and aggregated into the metrics but not attached to
    the tree, the ``obs.spans_dropped`` counter records how many, and
    the exported snapshot is marked ``truncated`` so downstream tooling
    never mistakes a capped trace for a complete one.
    """

    def __init__(self, max_recorded_spans: int = 10_000):
        self.root = Span("trace")
        self.metrics = MetricsRegistry()
        self.max_recorded_spans = max_recorded_spans
        self._epoch = time.perf_counter()
        self._stack: list[Span] = [self.root]
        self._recorded = 0
        self._visited_counter = self.metrics.counter("states_visited")
        self._dropped_counter = self.metrics.counter("obs.spans_dropped")

    # -- event sinks ---------------------------------------------------

    def visit(self, count: int) -> None:
        self._stack[-1].states_visited += count
        self._visited_counter.inc(count)

    def record(self, name: str) -> None:
        operations = self._stack[-1].operations
        operations[name] = operations.get(name, 0) + 1
        self.metrics.counter(f"op.{name}").inc()

    # -- span lifecycle ------------------------------------------------

    def open_span(self, name: str, attrs: Optional[dict[str, Any]]) -> Span:
        opened = Span(name, dict(attrs) if attrs else {})
        opened.start = time.perf_counter() - self._epoch
        if self._recorded < self.max_recorded_spans:
            self._stack[-1].children.append(opened)
            self._recorded += 1
        else:
            self._dropped_counter.inc()
        self._stack.append(opened)
        return opened

    def close_span(self, closing: Span, duration: float, cpu: float = 0.0) -> None:
        closing.duration = duration
        closing.cpu = cpu
        # Tolerate mispaired exits (e.g. a generator abandoned mid-span)
        # by popping back to the matching frame.
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top is closing:
                break
        self.metrics.counter(f"span.{closing.name}").inc()
        self.metrics.histogram(
            f"span_seconds.{closing.name}", DURATION_BUCKETS
        ).observe(duration)
        sizes = self.metrics.histogram("automaton_states", SIZE_BUCKETS)
        for key, value in closing.attrs.items():
            if key.endswith("states") or key.endswith(("states_in", "states_out")):
                if isinstance(value, (int, float)):
                    sizes.observe(value)

    # -- merging child snapshots ---------------------------------------

    def absorb(self, snapshot: dict[str, Any], label: str = "worker") -> None:
        """Merge another collector's :meth:`to_dict` export into this one.

        This is how the parallel GCI layer keeps ``--stats-json``
        accurate: each worker process runs its chunk under a private
        collector, ships the snapshot back, and the parent folds it in —
        counters and histograms add into the registry, and the child's
        trace tree is grafted under the currently open span as a
        ``label`` node so per-worker time/state attribution survives.
        """
        metrics = snapshot.get("metrics") or {}
        for name, value in (metrics.get("counters") or {}).items():
            # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
            self.metrics.counter(name).inc(value)
        for name, value in (metrics.get("gauges") or {}).items():
            # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
            gauge = self.metrics.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, snap in (metrics.get("histograms") or {}).items():
            boundaries = tuple(
                float(key[3:])
                for key in snap.get("buckets", {})
                if key != "inf"
            )
            # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
            self.metrics.histogram(name, boundaries or DURATION_BUCKETS
                                   ).merge_snapshot(snap)
        trace = snapshot.get("trace")
        if trace is not None:
            child = Span.from_dict(trace)
            child.name = label
            recorded = 1 + sum(1 for _ in _iter_spans(child))
            if self._recorded + recorded <= self.max_recorded_spans:
                self._stack[-1].children.append(child)
                self._recorded += recorded
            else:
                self._dropped_counter.inc(recorded)

    # -- non-span event hooks ------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
        self.metrics.gauge(name).set(value)

    def progress(self, stage: str, done: float, total: float) -> None:
        """Record enumeration progress as a pair of gauges; the journal
        sink turns the same hook into heartbeat events with an ETA."""
        self.metrics.gauge(f"progress.{stage}.done").set(done)
        self.metrics.gauge(f"progress.{stage}.total").set(total)

    # -- export --------------------------------------------------------

    @property
    def states_visited(self) -> int:
        """Total NFA states visited while this collector was active."""
        return self._visited_counter.value

    @property
    def operations(self) -> dict[str, int]:
        """Operation counts (the ``op.<name>`` counters) by name."""
        return {
            name[3:]: counter.value
            for name, counter in self.metrics._counters.items()
            if name.startswith("op.")
        }

    @property
    def spans_dropped(self) -> int:
        """Spans the ``max_recorded_spans`` cap kept out of the tree."""
        return self._dropped_counter.value

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "dprle.obs/2",
            "truncated": self._dropped_counter.value > 0,
            "spans_dropped": self._dropped_counter.value,
            "trace": self.root.to_dict(),
            "metrics": self.metrics.snapshot(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_trace(self) -> str:
        return self.root.render()

    def __repr__(self) -> str:
        return (
            f"<Collector states_visited={self.states_visited} "
            f"spans={self._recorded}>"
        )


# -- the contextvar sink registry ------------------------------------------

# All active sinks (collectors and journals), outermost first.  Every
# event goes to *every* sink, which is what makes nested collect()
# scopes propagate to their ancestors.
_sinks: ContextVar[Optional[tuple]] = ContextVar("dprle_obs_sinks", default=None)


@contextmanager
def _register(sink) -> Iterator[Any]:
    """Activate a sink for the duration of the block (stacking)."""
    active = _sinks.get()
    token = _sinks.set((sink,) if active is None else active + (sink,))
    try:
        yield sink
    finally:
        _sinks.reset(token)


def active_sinks() -> tuple:
    """The currently active sinks, outermost first (may be empty)."""
    return _sinks.get() or ()


@contextmanager
def collect(max_recorded_spans: int = 10_000) -> Iterator[Collector]:
    """Activate a :class:`Collector` for the duration of the block."""
    collector = Collector(max_recorded_spans=max_recorded_spans)
    started = time.perf_counter()
    try:
        with _register(collector):
            yield collector
    finally:
        collector.root.duration = time.perf_counter() - started


def absorb(snapshot: dict[str, Any], label: str = "worker") -> None:
    """Fold a child collector's exported snapshot into every active
    collector: metrics merge and the child trace is grafted
    (:meth:`Collector.absorb`).  Journals stream their own events and
    take no snapshot.  A no-op when nothing is active.
    """
    active = _sinks.get()
    if active is not None:
        for sink in active:
            if isinstance(sink, Collector):
                sink.absorb(snapshot, label)


def current_collector() -> Optional[Collector]:
    """The innermost active collector, or None."""
    active = _sinks.get()
    if active is None:
        return None
    for sink in reversed(active):
        if isinstance(sink, Collector):
            return sink
    return None


# -- instrumentation hooks (the hot-path API) -------------------------------


def visit_states(count: int) -> None:
    """Record that an automata operation visited ``count`` states."""
    active = _sinks.get()
    if active is not None:
        for sink in active:
            sink.visit(count)


def count_operation(name: str) -> None:
    """Record one high-level operation (e.g. ``"product"``)."""
    active = _sinks.get()
    if active is not None:
        for sink in active:
            sink.record(name)


def increment_metric(name: str, amount: int = 1) -> None:
    """Increment a named counter on every active collector's registry.

    Unlike :func:`count_operation` this does not prefix ``op.`` or
    touch span operation tallies — it is the raw hook the language
    cache uses for its ``cache.hit.<op>`` / ``cache.miss.<op>`` /
    ``cache.evictions`` counters and the GCI enumeration for its
    ``gci.combinations_*`` series.  A no-op when nothing is collecting.
    """
    active = _sinks.get()
    if active is not None:
        for sink in active:
            # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
            sink.metrics.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set a named gauge on every active collector-like sink.

    Used for point-in-time readings (language-cache table size, worker
    utilization, progress ratios) that counters cannot express.  A
    no-op when nothing is collecting.
    """
    active = _sinks.get()
    if active is not None:
        for sink in active:
            setter = getattr(sink, "set_gauge", None)
            if setter is not None:
                setter(name, value)


def observe_value(name: str, value: float,
                  boundaries: Optional[tuple[float, ...]] = None) -> None:
    """Observe ``value`` into the named histogram of every active
    collector-like sink (chunk durations, queue waits, ...)."""
    active = _sinks.get()
    if active is not None:
        for sink in active:
            # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
            sink.metrics.histogram(
                name, boundaries or DURATION_BUCKETS
            ).observe(value)


def progress(stage: str, done: float, total: float) -> None:
    """Report enumeration progress to every sink that wants it.

    Collectors record it as ``progress.<stage>.done/total`` gauges; the
    structured journal (:mod:`repro.obs.journal`) emits throttled
    heartbeat events carrying percent complete and an ETA, which is how
    a long GCI stage-5 enumeration stays observable while it runs.  A
    no-op when nothing is collecting.
    """
    active = _sinks.get()
    if active is not None:
        for sink in active:
            hook = getattr(sink, "progress", None)
            if hook is not None:
                hook(stage, done, total)


def event(name: str, **fields: Any) -> None:
    """Emit a structured point event (no duration) to interested sinks.

    Collectors ignore events; the journal writes them as JSONL records.
    Used for one-shot facts like the pre-solve cost ceiling.
    """
    active = _sinks.get()
    if active is not None:
        for sink in active:
            hook = getattr(sink, "record_event", None)
            if hook is not None:
                hook(name, fields)


class _SpanContext:
    """Context manager returned by :func:`span`.

    Deliberately a plain class rather than a ``@contextmanager``
    generator: entering costs one contextvar read when no collector is
    active, which is what keeps always-on instrumentation affordable.
    """

    __slots__ = ("_name", "_attrs", "_pairs", "_handle", "_started", "_cpu_started")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self._name = name
        self._attrs = attrs
        self._pairs: Optional[list] = None

    def __enter__(self):
        active = _sinks.get()
        if active is None:
            return _NOOP_HANDLE
        pairs = [
            (sink, sink.open_span(self._name, self._attrs))
            for sink in active
        ]
        self._pairs = pairs
        self._started = time.perf_counter()
        self._cpu_started = time.thread_time()
        return SpanHandle([opened for _, opened in pairs])

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._pairs is not None:
            duration = time.perf_counter() - self._started
            cpu = time.thread_time() - self._cpu_started
            for sink, opened in reversed(self._pairs):
                if exc_type is not None:
                    opened.attrs["error"] = exc_type.__name__
                sink.close_span(opened, duration, cpu)
            self._pairs = None
        return False


def span(name: str, **attrs: Any) -> _SpanContext:
    """Open a named span for the duration of a ``with`` block.

    The block receives a handle whose ``set(key, value)`` attaches
    result attributes (sizes out, solution counts, ...).  A no-op when
    no collector is active.
    """
    return _SpanContext(name, attrs)


def traced(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator form of :func:`span` for whole functions."""

    def wrap(fn: Callable) -> Callable:
        label = name or fn.__name__

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if _sinks.get() is None:
                return fn(*args, **kwargs)
            # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return inner

    return wrap


# -- sibling modules --------------------------------------------------------
# Imported last so they can pull the core names above without a cycle.

from .diff import diff_snapshots  # noqa: E402
from .export import (  # noqa: E402
    render_report,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
)
from .journal import Journal, journal_to  # noqa: E402
