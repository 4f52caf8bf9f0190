"""Structured event journal: a durable JSONL stream of solver events.

The in-memory :class:`~repro.obs.Collector` answers "where did the time
go" *after* a run; the journal answers it *during* one, and leaves a
replayable record behind.  It is a span sink like the collector —
registered in the same contextvar stack, so collectors and journals
compose freely — but instead of building a tree
it appends one JSON object per line to a stream as events happen:

``journal_start``
    Stream header: schema (``dprle.journal/1``), pid, wall-clock epoch,
    and the sampling configuration.  All later timestamps (``t``) are
    monotonic seconds since this header was written.
``span_open`` / ``span_close``
    One pair per (sampled) span.  ``span_close`` carries wall and CPU
    seconds, the states visited while the span was innermost, and the
    final attributes.  ``id``/``parent`` link the pairs into a tree;
    ``trace`` groups everything under the enclosing top-level span —
    a fresh trace id is minted whenever a span opens at depth zero, so
    each ``solve``/``analyze`` gets its own (the per-request id the
    solver-as-a-service daemon will expose).
``heartbeat``
    Throttled progress reports from long enumerations
    (:func:`repro.obs.progress`): stage, done/total, percent complete,
    and an ETA extrapolated from the observed rate.  This is how a
    100k-combination GCI stage 5 stays observable while it runs.
``event``-style records
    Arbitrary point facts emitted through :func:`repro.obs.event`
    (e.g. the pre-solve ``cost_ceiling`` estimate).
``metrics`` / ``journal_end``
    Final counters/gauges/histograms snapshot and a closing summary
    (spans written vs. sampled out), so a truncated journal is
    detectable by its missing trailer.

**Sampling** bounds journal volume on pathological runs: with
``sample_every=N`` only every Nth span *per span name* is written
(the first always is).  Unwritten spans still count — the closing
``metrics`` event carries exact per-name totals, and
``spans_sampled_out`` reports how many pairs were suppressed.

Overhead: when no journal is registered the hot-path hooks cost one
contextvar read (shared with the collector machinery); an active
journal pays one ``json.dumps`` + ``write`` per sampled event.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator, Optional, Union

from . import DURATION_BUCKETS, MetricsRegistry, Span, _register

__all__ = ["Journal", "journal_to"]

SCHEMA = "dprle.journal/1"


class _JournalSpan(Span):
    """A :class:`Span` plus the journal-side bookkeeping slots."""

    __slots__ = ("sid", "parent_sid", "written", "trace_id")


class Journal:
    """A span/metrics sink that streams events as JSONL.

    Register with :func:`journal_to` (context manager) rather than
    instantiating directly, unless you are composing sinks by hand.
    """

    def __init__(
        self,
        stream: IO[str],
        *,
        sample_every: int = 1,
        heartbeat_seconds: float = 0.5,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.stream = stream
        self.sample_every = sample_every
        self.heartbeat_seconds = heartbeat_seconds
        self.metrics = MetricsRegistry()
        self.events_written = 0
        self.spans_sampled_out = 0
        self._epoch = time.monotonic()
        self._pid = os.getpid()
        self._stack: list[_JournalSpan] = []
        self._next_sid = 0
        self._trace_seq = 0
        self._trace_id: Optional[str] = None
        self._name_counts: dict[str, int] = {}
        # Per-stage heartbeat state: (first_t, first_done, last_emit_t).
        self._progress: dict[str, tuple[float, float, float]] = {}
        self._closed = False
        self._write(
            {
                "event": "journal_start",
                "schema": SCHEMA,
                "pid": self._pid,
                "wall_unix": time.time(),
                "sample_every": sample_every,
                "heartbeat_seconds": heartbeat_seconds,
            }
        )

    # -- low-level emission --------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._epoch

    def _write(self, record: dict[str, Any]) -> None:
        if self._closed:
            return
        record.setdefault("t", round(self._now(), 6))
        self.stream.write(json.dumps(record, separators=(",", ":"), default=str))
        self.stream.write("\n")
        self.events_written += 1

    # -- span sink interface -------------------------------------------

    def visit(self, count: int) -> None:
        if self._stack:
            self._stack[-1].states_visited += count
        self.metrics.counter("states_visited").inc(count)

    def record(self, name: str) -> None:
        if self._stack:
            operations = self._stack[-1].operations
            operations[name] = operations.get(name, 0) + 1
        self.metrics.counter(f"op.{name}").inc()

    def open_span(
        self, name: str, attrs: Optional[dict[str, Any]]
    ) -> _JournalSpan:
        opened = _JournalSpan(name, dict(attrs) if attrs else {})
        self._next_sid += 1
        opened.sid = self._next_sid
        opened.parent_sid = self._stack[-1].sid if self._stack else 0
        if not self._stack:
            self._trace_seq += 1
            self._trace_id = f"{self._pid:x}.{self._trace_seq}"
        opened.trace_id = self._trace_id
        seen = self._name_counts.get(name, 0)
        self._name_counts[name] = seen + 1
        opened.written = seen % self.sample_every == 0
        opened.start = self._now()
        self._stack.append(opened)
        if opened.written:
            record: dict[str, Any] = {
                "event": "span_open",
                "trace": opened.trace_id,
                "id": opened.sid,
                "parent": opened.parent_sid,
                "name": name,
                "t": round(opened.start, 6),
            }
            if opened.attrs:
                record["attrs"] = dict(opened.attrs)
            self._write(record)
        return opened

    def close_span(
        self, closing: Span, duration: float, cpu: float = 0.0
    ) -> None:
        while self._stack:
            top = self._stack.pop()
            if top is closing:
                break
        self.metrics.counter(f"span.{closing.name}").inc()
        self.metrics.histogram(
            f"span_seconds.{closing.name}", DURATION_BUCKETS
        ).observe(duration)
        journal_span = closing if isinstance(closing, _JournalSpan) else None
        if journal_span is None or not journal_span.written:
            self.spans_sampled_out += 1
            return
        record: dict[str, Any] = {
            "event": "span_close",
            "trace": journal_span.trace_id,
            "id": journal_span.sid,
            "name": closing.name,
            "wall_s": round(duration, 6),
            "cpu_s": round(cpu, 6),
        }
        if closing.states_visited:
            record["states_visited"] = closing.states_visited
        if closing.attrs:
            record["attrs"] = dict(closing.attrs)
        if closing.operations:
            record["operations"] = dict(closing.operations)
        self._write(record)

    # -- non-span hooks ------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        # dprle-lint: disable=L021 -- registry plumbing: name was schema-checked at the emission call site
        self.metrics.gauge(name).set(value)

    def record_event(self, name: str, fields: dict[str, Any]) -> None:
        record: dict[str, Any] = {"event": name, "trace": self._trace_id}
        record.update(fields)
        self._write(record)

    def progress(self, stage: str, done: float, total: float) -> None:
        """Emit a throttled heartbeat with percent complete and ETA."""
        now = self._now()
        state = self._progress.get(stage)
        if state is None:
            self._progress[stage] = (now, done, now)
        else:
            first_t, first_done, last_emit = state
            if now - last_emit < self.heartbeat_seconds and done < total:
                return
            self._progress[stage] = (first_t, first_done, now)
        first_t, first_done, _ = self._progress[stage]
        record: dict[str, Any] = {
            "event": "heartbeat",
            "trace": self._trace_id,
            "stage": stage,
            "done": done,
            "total": total,
            "t": round(now, 6),
        }
        if total > 0:
            record["percent"] = round(100.0 * done / total, 2)
        rate_window = now - first_t
        if done > first_done and rate_window > 0:
            rate = (done - first_done) / rate_window
            record["eta_s"] = round(max(0.0, (total - done) / rate), 3)
        self._write(record)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Write the metrics snapshot and the closing trailer."""
        if self._closed:
            return
        self._write({"event": "metrics", "metrics": self.metrics.snapshot()})
        self._write(
            {
                "event": "journal_end",
                "events_written": self.events_written + 1,
                "spans_sampled_out": self.spans_sampled_out,
            }
        )
        self._closed = True
        self.stream.flush()


@contextmanager
def journal_to(
    target: Union[str, Path, IO[str]],
    *,
    sample_every: int = 1,
    heartbeat_seconds: float = 0.5,
) -> Iterator[Journal]:
    """Activate a :class:`Journal` writing to ``target`` for the block.

    ``target`` may be a path (opened for writing, closed on exit) or an
    already-open text stream (left open).  The journal stacks with any
    active collectors; every sink sees every event.
    """
    stream: IO[str]
    owned = isinstance(target, (str, Path))
    if isinstance(target, (str, Path)):
        stream = open(target, "w", encoding="utf-8")
    else:
        stream = target
    journal = Journal(
        stream, sample_every=sample_every, heartbeat_seconds=heartbeat_seconds
    )
    try:
        with _register(journal):
            yield journal
    finally:
        journal.close()
        if owned:
            stream.close()
