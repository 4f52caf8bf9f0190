"""The metric-name schema: one registry of every telemetry series.

Every counter, gauge, histogram, span, progress stage, and journal
event the solver emits is declared here, in one place, for three
consumers:

* the ``L020`` lint rule (:mod:`repro.lint.rules.metrics`) statically
  checks every emission call site against this registry, so a typo'd
  metric name — which would otherwise mint a silent new series and
  vanish from dashboards and CI gates — is a lint error at review time;
* the runtime exhaustiveness test (``tests/obs/test_schema.py``) solves
  the wide/wider corpus and asserts the observed names and this
  registry agree in both directions;
* the CI counter gate (``dprle obs diff --keys counters``) can
  enumerate its gated universe instead of trusting whatever names
  happen to appear in a snapshot.

Dynamic series (``cache.hit.<op>``, ``parallel.worker.<pid>.busy_ms``,
``span_seconds.<name>``) are declared as *patterns*: dot-separated
segments where ``*`` matches exactly one segment.  The lint rule checks
f-string emission sites against patterns (literal segments must line
up); the runtime test matches observed names the same way.

Adding a metric? Register it here first — the lint gate fails otherwise
— and keep the name stable: like ``D``/``L`` diagnostic codes, series
names are API for dashboards and regression baselines.
"""

from __future__ import annotations

__all__ = [
    "OPERATIONS",
    "CACHE_OPS",
    "SPANS",
    "EVENTS",
    "PROGRESS_STAGES",
    "COUNTERS",
    "GAUGES",
    "HISTOGRAMS",
    "COUNTER_PATTERNS",
    "GAUGE_PATTERNS",
    "HISTOGRAM_PATTERNS",
    "REQUIRED_COUNTERS",
    "matches_pattern",
    "is_known_counter",
    "is_known_gauge",
    "is_known_histogram",
    "is_known_span",
    "is_known_event",
    "is_known_operation",
    "is_known_progress_stage",
    "all_exact_names",
]

#: High-level operation names (``obs.count_operation``); each mints the
#: counter ``op.<name>`` and, via :class:`repro.obs.Collector`, a
#: per-span operation tally.
OPERATIONS: frozenset[str] = frozenset({
    "determinize",
    "minimize",
    "complement",
    "product",
    "intersect",
    "difference",
    "union",
    "concat",
    "star",
    "plus",
    "optional",
    "embed",
    "reverse",
    "prefixes",
    "suffixes",
    "substrings",
    "eliminate_epsilon",
    "left_quotient",
    "right_quotient",
    "inclusion_check",
    "fst_image",
    "fst_preimage",
})

#: Operations the language cache memoizes; each mints
#: ``cache.hit.<op>`` and ``cache.miss.<op>``.
CACHE_OPS: frozenset[str] = frozenset({
    "minimize",
    "eliminate_epsilon",
    "intersect",
    "is_subset",
})

#: Span names (``obs.span``/``obs.traced``); each mints ``span.<name>``
#: and ``span_seconds.<name>``.  ``trace`` is the collector root;
#: ``worker`` is the label :func:`repro.obs.absorb` grafts child
#: snapshots under.
SPANS: frozenset[str] = frozenset({
    "trace",
    "worker",
    "solve",
    "basic_constraints",
    "worklist_iteration",
    "ci",
    "gci_combination",
    "gci_maximize",
    "determinize",
    "hopcroft",
    "minimize",
    "complement",
    "eliminate_epsilon",
    "product",
    "left_quotient",
    "right_quotient",
    "inclusion_check",
    "check",
    "graph",
    "analyze",
    "sink_query",
    "server_request",
})

#: Structured point events (``obs.event``), journalled as JSONL records.
EVENTS: frozenset[str] = frozenset({
    "cost_ceiling",
})

#: Progress stages (``obs.progress``); each mints the gauges
#: ``progress.<stage>.done`` and ``progress.<stage>.total`` plus
#: throttled journal heartbeats.
PROGRESS_STAGES: frozenset[str] = frozenset({
    "gci_enumeration",
})

#: Every exactly-named counter, including the generated families.
COUNTERS: frozenset[str] = frozenset(
    {
        "states_visited",
        "obs.spans_dropped",
        "cache.evictions",
        "cache.empty_shortcircuit",
        "gci.combinations_total",
        "gci.combinations_enumerated",
        "gci.combinations_pruned",
        "gci.combinations_skipped",
        "gci.pair_memo_hits",
        "gci.pair_memo_misses",
        "gci.slice_memo_hits",
        "gci.slice_memo_misses",
        "gci.slice.states_walked",
        "gci.slice.states_kept",
        "cache.store.hits",
        "cache.store.misses",
        "cache.store.writes",
        "cache.store.corrupt_recovered",
        "server.requests",
        "server.errors",
        "server.deadline_exceeded",
    }
    | {f"op.{name}" for name in OPERATIONS}
    | {f"span.{name}" for name in SPANS}
    | {f"cache.hit.{op}" for op in CACHE_OPS}
    | {f"cache.miss.{op}" for op in CACHE_OPS}
)

#: Exactly-named gauges.
GAUGES: frozenset[str] = frozenset(
    {
        "cache.entries",
        "check.cost_ceiling",
        "parallel.chunk_skew",
        "parallel.utilization",
        "cache.store.entries",
        "server.queue_depth",
        "server.inflight",
    }
    | {f"progress.{stage}.done" for stage in PROGRESS_STAGES}
    | {f"progress.{stage}.total" for stage in PROGRESS_STAGES}
)

#: Exactly-named histograms.
HISTOGRAMS: frozenset[str] = frozenset(
    {
        "automaton_states",
        "parallel.chunk_seconds",
        "parallel.chunk_combinations",
        "parallel.queue_wait_seconds",
        "server.request_seconds",
        "server.queue_wait_seconds",
    }
    | {f"span_seconds.{name}" for name in SPANS}
)

#: Patterns for dynamically-named series.  Dot-separated; ``*`` matches
#: exactly one segment.  The f-string form of each emission site must
#: reduce to one of these.
COUNTER_PATTERNS: tuple[str, ...] = (
    "op.*",
    "span.*",
    "cache.hit.*",
    "cache.miss.*",
    "parallel.worker.*.busy_ms",
)

GAUGE_PATTERNS: tuple[str, ...] = (
    "progress.*.done",
    "progress.*.total",
)

HISTOGRAM_PATTERNS: tuple[str, ...] = (
    "span_seconds.*",
)

#: Counters a serial solve of any non-trivial corpus entry must emit;
#: the runtime test asserts these appear (schema ⊆ observed for the
#: unconditional core, observed ⊆ schema for everything).
REQUIRED_COUNTERS: frozenset[str] = frozenset({
    "states_visited",
    "op.determinize",
    "op.product",
    "op.concat",
    "span.solve",
    "span.ci",
    "span.determinize",
    "span.gci_combination",
    "gci.combinations_total",
    "gci.combinations_enumerated",
})


def matches_pattern(name: str, pattern: str) -> bool:
    """Segment-wise wildcard match: ``*`` matches one dot-free segment."""
    name_parts = name.split(".")
    pattern_parts = pattern.split(".")
    if len(name_parts) != len(pattern_parts):
        return False
    return all(
        want == "*" or want == have
        for want, have in zip(pattern_parts, name_parts)
    )


def _known(name: str, exact: frozenset[str], patterns: tuple[str, ...]) -> bool:
    if name in exact:
        return True
    return any(matches_pattern(name, pattern) for pattern in patterns)


def is_known_counter(name: str) -> bool:
    """True iff ``name`` is a registered counter (exact or pattern)."""
    return _known(name, COUNTERS, COUNTER_PATTERNS)


def is_known_gauge(name: str) -> bool:
    """True iff ``name`` is a registered gauge (exact or pattern)."""
    return _known(name, GAUGES, GAUGE_PATTERNS)


def is_known_histogram(name: str) -> bool:
    """True iff ``name`` is a registered histogram (exact or pattern)."""
    return _known(name, HISTOGRAMS, HISTOGRAM_PATTERNS)


def is_known_span(name: str) -> bool:
    return name in SPANS


def is_known_event(name: str) -> bool:
    return name in EVENTS


def is_known_operation(name: str) -> bool:
    return name in OPERATIONS


def is_known_progress_stage(name: str) -> bool:
    return name in PROGRESS_STAGES


def all_exact_names() -> dict[str, frozenset[str]]:
    """Every exactly-registered name by instrument kind — the universe
    the CI counter gate and the exhaustiveness test enumerate."""
    return {
        "counters": COUNTERS,
        "gauges": GAUGES,
        "histograms": HISTOGRAMS,
        "spans": SPANS,
        "events": EVENTS,
    }
