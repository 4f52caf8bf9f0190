"""Multiprocess fan-out for the GCI bridge-combination enumeration.

The stage-5 enumeration of :mod:`repro.solver.gci` walks a product
space of bridge-edge choices whose combinations are independent of one
another — a textbook fan-out.  This module chunks the canonical
combination index range across a :class:`~concurrent.futures.
ProcessPoolExecutor`, ships each worker a picklable encoding of the
prepared group (:func:`encode_group`, built on the id-preserving
:func:`repro.automata.serialize.to_dict`), and re-assembles the
results *in canonical index order*, so the output is byte-for-byte the
serial enumeration's regardless of worker count or chunk boundaries.

Three process-boundary rules keep the workers honest:

* **Fresh ambient state.**  Workers are forked, so they inherit the
  parent's contextvars — including any active language cache and obs
  sinks.  Every task begins by clearing both: a worker must never
  write to (a copy of) the parent's cache, and parent sinks in a
  child process would silently swallow that child's telemetry.
* **Per-worker caches.**  Each worker process owns one process-global
  :class:`repro.cache.LangCache`, warm across tasks.  Dedupe keys
  computed against it are canonical language digests
  (:mod:`repro.cache`), identical across processes, so the parent can
  mix worker keys with its own.
* **Merged telemetry.**  When the parent is collecting, each task runs
  under its own :func:`repro.obs.collect` and returns the snapshot;
  the parent folds it into every active sink via
  :func:`repro.obs.absorb`, so ``--stats-json`` totals cover worker
  work too.

:func:`resolve_workers` decides the fan-out width (explicit setting,
else the ``DPRLE_WORKERS`` environment variable, else serial) and
pins workers themselves to serial — a worker never nests a pool.

:func:`solve_groups` extends the same pool to the worklist solver's
independent CI-groups: every group's chunks are submitted up-front, so
the pool interleaves work across groups instead of draining them one
at a time.
"""

from __future__ import annotations

import atexit
import itertools
import os
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from . import cache as cache_mod
from . import obs
from .automata.alphabet import Alphabet
from .automata.charset import CharSet
from .automata.nfa import BridgeTag, Nfa
from .automata.serialize import from_dict, to_dict
from .constraints.depgraph import DepGraph, Node

__all__ = [
    "resolve_workers",
    "parallel_candidates",
    "solve_groups",
    "encode_group",
    "shutdown",
]

# Chunks per worker: small enough to amortize the per-task payload
# decode (memoized per group anyway), large enough that a straggler
# chunk cannot idle the rest of the pool for long.
_CHUNKS_PER_WORKER = 4

# Set in worker processes by _run_chunk; makes resolve_workers return 0
# so a worker's own enumeration can never open a nested pool.
_IN_WORKER = False


def resolve_workers(requested: Optional[int]) -> int:
    """The effective worker count: explicit setting, else the
    ``DPRLE_WORKERS`` environment variable, else 0 (serial).  Always 0
    inside a worker process."""
    if _IN_WORKER:
        return 0
    if requested is None:
        env = os.environ.get("DPRLE_WORKERS", "").strip()
        if not env:
            return 0
        try:
            requested = int(env)
        except ValueError:
            return 0
    return max(0, requested)


# -- the pool ---------------------------------------------------------------

_pools: dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _pools.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _pools[workers] = pool
    return pool


def shutdown() -> None:
    """Tear down every pool (registered via atexit; callable from tests
    to force fresh worker processes)."""
    for pool in _pools.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _pools.clear()


atexit.register(shutdown)


# -- task encoding ----------------------------------------------------------

_group_keys = itertools.count()


def _enc_node(node: Node) -> tuple[str, str]:
    return (node.kind, node.name)


def _enc_boundary(boundary: tuple) -> list:
    if boundary[0] == "machine":
        return ["machine"]
    return [boundary[0], boundary[1].label]


def encode_group(prepared, limits) -> dict[str, Any]:
    """A picklable encoding of a prepared GCI group (gci._PreparedGroup).

    Machines are encoded id-preserving (:func:`to_dict`) so the bridge
    edges' ``(src, dst)`` state pairs and the occurrences' boundary
    selectors remain valid references into the decoded machines; tags
    travel by label and are re-minted once per decode through a shared
    registry, restoring the identity-keying the enumeration relies on.
    Only the machines the enumeration actually reads are shipped: the
    occurrence tops and the leaves (maximization contexts).
    """
    needed = {occ.top for occ in prepared.occurrences} | prepared.leaves
    alphabet = next(iter(prepared.machines.values())).alphabet
    return {
        "group_key": next(_group_keys),
        "alphabet": list(alphabet.universe.ranges),
        "alphabet_name": alphabet.name,
        "machines": [
            [_enc_node(node), to_dict(prepared.machines[node])]
            for node in sorted(needed, key=lambda n: (n.kind, n.name))
        ],
        "occurrences": [
            {
                "node": _enc_node(occ.node),
                "top": _enc_node(occ.top),
                "start_of": _enc_boundary(occ.start_of),
                "final_of": _enc_boundary(occ.final_of),
            }
            for occ in prepared.occurrences
        ],
        "tag_order": [tag.label for tag in prepared.tag_order],
        "edges_by_tag": [
            [tag.label, list(prepared.edges_by_tag[tag])]
            for tag in prepared.tag_order
        ],
        "constraint_specs": [
            [to_dict(const), [_enc_node(n) for n in leaf_seq]]
            for const, leaf_seq in prepared.constraint_specs
        ],
        "var_nodes": [_enc_node(n) for n in prepared.var_nodes],
        "leaves": [_enc_node(n) for n in prepared.leaves],
        "total_combinations": prepared.total_combinations,
        "factored_combinations": prepared.factored_combinations,
        # The planner's verdict travels with the group: workers iterate
        # the same survivor mask (hex-encoded — it is one big int) so a
        # chunk walks exactly the combinations the parent accounted for.
        "plan": None
        if prepared.plan is None
        else {
            "mode": prepared.plan.mode,
            "space": prepared.plan.space,
            "pruned_equiv": prepared.plan.pruned_equiv,
            "pruned_plan": prepared.plan.pruned_plan,
            "survivors": prepared.plan.survivors,
            "mask": (
                format(prepared.plan.mask, "x")
                if prepared.plan.mask is not None
                else None
            ),
        },
        "limits": {
            "maximize": limits.maximize,
            "max_maximize_rounds": limits.max_maximize_rounds,
        },
        "collect": bool(obs.active_sinks()),
    }


# -- worker side ------------------------------------------------------------


@dataclass
class _WorkerState:
    prepared: Any  # gci._PreparedGroup
    limits: Any  # gci.GciLimits
    collect: bool


# Decoded groups, keyed by group_key, kept across tasks so the many
# chunks of one group decode the payload once per worker process.
_decoded: "OrderedDict[int, _WorkerState]" = OrderedDict()
_DECODE_KEEP = 4

# One language cache per worker process, warm across tasks.
_worker_cache: Optional["cache_mod.LangCache"] = None


def _dec_boundary(item: list, tags: dict[str, BridgeTag]) -> tuple:
    if item[0] == "machine":
        return ("machine",)
    return (item[0], tags.setdefault(item[1], BridgeTag(item[1])))


def _decode_payload(payload: dict[str, Any]) -> _WorkerState:
    from .solver import gci

    alphabet = Alphabet(
        CharSet([tuple(r) for r in payload["alphabet"]]),
        name=payload["alphabet_name"],
    )
    tags: dict[str, BridgeTag] = {}
    machines = {
        Node(*key): from_dict(doc, tags, alphabet)
        for key, doc in payload["machines"]
    }
    occurrences = [
        gci._Occurrence(
            node=Node(*item["node"]),
            top=Node(*item["top"]),
            start_of=_dec_boundary(item["start_of"], tags),
            final_of=_dec_boundary(item["final_of"], tags),
        )
        for item in payload["occurrences"]
    ]
    tag_order = [
        tags.setdefault(label, BridgeTag(label))
        for label in payload["tag_order"]
    ]
    edges_by_tag = {
        tags.setdefault(label, BridgeTag(label)): [tuple(e) for e in edges]
        for label, edges in payload["edges_by_tag"]
    }
    plan_doc = payload.get("plan")
    plan = None
    if plan_doc is not None:
        from .solver.plan import EnumerationPlan

        plan = EnumerationPlan(
            mode=plan_doc["mode"],
            space=plan_doc["space"],
            pruned_equiv=plan_doc["pruned_equiv"],
            pruned_plan=plan_doc["pruned_plan"],
            survivors=plan_doc["survivors"],
            mask=(
                int(plan_doc["mask"], 16)
                if plan_doc["mask"] is not None
                else None
            ),
        )
    prepared = gci._PreparedGroup(
        machines=machines,
        occurrences=occurrences,
        tag_order=tag_order,
        edges_by_tag=edges_by_tag,
        constraint_specs=[
            (from_dict(doc, tags, alphabet), [Node(*n) for n in seq])
            for doc, seq in payload["constraint_specs"]
        ],
        var_nodes=[Node(*n) for n in payload["var_nodes"]],
        leaves={Node(*n) for n in payload["leaves"]},
        total_combinations=payload["total_combinations"],
        factored_combinations=payload["factored_combinations"],
        plan=plan,
    )
    limits = gci.GciLimits(
        maximize=payload["limits"]["maximize"],
        max_maximize_rounds=payload["limits"]["max_maximize_rounds"],
        workers=0,
    )
    return _WorkerState(prepared, limits, payload["collect"])


def _run_chunk(
    payload: dict[str, Any], start: int, stop: int
) -> tuple[list, Optional[dict[str, Any]]]:
    """Worker entry point: enumerate combinations ``[start, stop)``.

    Returns ``(results, obs snapshot or None)`` where each result is
    ``(canonical index, dedupe key, [encoded machine per var node])``.
    The dedupe key is a tuple of canonical language digests — process
    independent, so the parent can use it directly.
    """
    global _IN_WORKER, _worker_cache
    _IN_WORKER = True
    # dprle-lint: disable=L040 -- transport timestamp; feeds the parallel.chunk_seconds obs histogram
    chunk_started = time.perf_counter()
    # Forked ambient state from the parent: drop it (see module doc).
    obs._sinks.set(None)
    cache_mod._active.set(None)

    from .solver import gci

    state = _decoded.get(payload["group_key"])
    if state is None:
        state = _decode_payload(payload)
        _decoded[payload["group_key"]] = state
        while len(_decoded) > _DECODE_KEEP:
            _decoded.popitem(last=False)
    if _worker_cache is None:
        _worker_cache = cache_mod.LangCache()

    results: list = []

    def run() -> None:
        assert _worker_cache is not None
        for index, solution in gci._iter_candidates(
            state.prepared, state.limits, start, stop
        ):
            key = tuple(
                _worker_cache.signature(solution[node])
                for node in state.prepared.var_nodes
            )
            docs = [to_dict(solution[node]) for node in state.prepared.var_nodes]
            results.append((index, key, docs))

    snapshot: Optional[dict[str, Any]] = None
    with _worker_cache.activate():
        if state.collect:
            with obs.collect(max_recorded_spans=64) as collector:
                run()
            # dprle-lint: disable=L040 -- worker-side busy time folded into obs via absorb()
            busy = time.perf_counter() - chunk_started
            collector.metrics.histogram("parallel.chunk_seconds").observe(busy)
            collector.metrics.histogram(
                "parallel.chunk_combinations", obs.SIZE_BUCKETS
            ).observe(stop - start)
            snapshot = collector.to_dict()
            # Transport-only facts for the parent's _drain (popped there,
            # never absorbed into parent metrics): perf_counter is
            # CLOCK_MONOTONIC, shared across fork, so started_at is
            # directly comparable with the parent's submit timestamp.
            snapshot["worker"] = {
                "pid": os.getpid(),
                "started_at": chunk_started,
                "busy_s": busy,
            }
        else:
            run()
    return results, snapshot


# -- parent side ------------------------------------------------------------


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into ~``workers * _CHUNKS_PER_WORKER``
    contiguous ranges (fewer when total is small)."""
    target = max(1, workers * _CHUNKS_PER_WORKER)
    size = max(1, -(-total // target))
    return [(s, min(s + size, total)) for s in range(0, total, size)]


class _ChunkSchedule:
    """Submission state for one group's chunk fan-out.

    ``order`` is the submission priority — best-first by exact
    predicted yield (survivor popcount) for planned groups, canonical
    otherwise; ``window`` bounds how many chunks may be submitted ahead
    of the drain cursor (``None`` submits everything up front, today's
    eager behaviour).  Each future is paired with its submit timestamp
    so the drain can measure queue wait (submit → worker pickup, both
    on the fork-shared perf_counter clock).

    The drain consumes chunks in canonical order regardless of
    scheduling, so the output stream is deterministic; the schedule
    only decides *which work happens* when the consumer stops early.
    """

    def __init__(
        self,
        pool: ProcessPoolExecutor,
        payload: dict[str, Any],
        ranges: list[tuple[int, int]],
        order: Optional[list[int]] = None,
        window: Optional[int] = None,
    ):
        self.ranges = ranges
        self._pool = pool
        self._payload = payload
        self._order = order if order is not None else list(range(len(ranges)))
        self._window = window
        self._tasks: list[Optional[tuple[Future, float]]] = [None] * len(ranges)
        self._cursor = 0
        self._submitted = 0
        self._top_up(len(ranges) if window is None else window)

    def _submit(self, chunk: int) -> None:
        if self._tasks[chunk] is None:
            start, stop = self.ranges[chunk]
            self._tasks[chunk] = (
                self._pool.submit(_run_chunk, self._payload, start, stop),
                # dprle-lint: disable=L040 -- queue-entry timestamp; feeds parallel.queue_wait_seconds
                time.perf_counter(),
            )
            self._submitted += 1

    def _top_up(self, target: int) -> None:
        while self._submitted < target and self._cursor < len(self._order):
            chunk = self._order[self._cursor]
            self._cursor += 1
            self._submit(chunk)

    def task(self, chunk: int, consumed: int) -> tuple[Future, float]:
        """The chunk's (future, submit time); submits it now if the
        window had not reached it, and tops the window back up."""
        self._submit(chunk)
        if self._window is not None:
            self._top_up(consumed + self._window)
        entry = self._tasks[chunk]
        assert entry is not None
        return entry

    def submitted(self, chunk: int) -> Optional[tuple[Future, float]]:
        return self._tasks[chunk]


def _schedule_chunks(
    pool: ProcessPoolExecutor,
    payload: dict[str, Any],
    prepared,
    limits,
    workers: int,
) -> _ChunkSchedule:
    """Chunk the group's index space and pick the submission policy.

    Unplanned groups keep the historical behaviour: every chunk
    submitted eagerly, in canonical order.  A planned group with a
    viability mask drops zero-survivor chunks entirely, submits
    best-first by exact survivor count, and — when ``max_solutions``
    caps the solve — throttles the in-flight window to
    ``GciLimits.beam_width`` (or an automatic width: the canonical
    chunk prefix whose cumulative predicted yield covers the cap, never
    fewer than the worker count).
    """
    ranges = _chunk_ranges(prepared.index_space, workers)
    plan = prepared.plan
    order: Optional[list[int]] = None
    window: Optional[int] = None
    if (
        plan is not None
        and plan.mask is not None
        and plan.mode in ("beam", "full")
    ):
        yields = [plan.count_survivors(s, e) for s, e in ranges]
        keep = [i for i, y in enumerate(yields) if y > 0]
        if len(keep) != len(ranges):
            obs.increment_metric(
                "parallel.chunks_pruned", len(ranges) - len(keep)
            )
        ranges = [ranges[i] for i in keep]
        yields = [yields[i] for i in keep]
        order = sorted(range(len(ranges)), key=lambda i: (-yields[i], i))
        cap = limits.max_solutions
        if cap is not None and ranges:
            if limits.beam_width > 0:
                window = limits.beam_width
            else:
                window, cumulative = 0, 0
                for chunk_yield in yields:
                    window += 1
                    cumulative += chunk_yield
                    if cumulative >= cap:
                        break
                window = max(window, workers)
    return _ChunkSchedule(pool, payload, ranges, order=order, window=window)


def parallel_candidates(
    prepared, limits, workers: int
) -> Iterator[tuple[int, Any, dict[Node, Nfa]]]:
    """The parallel stage-5 producer (drop-in for
    ``gci._serial_candidates``): same ``(index, key, solution)`` stream,
    same canonical order, work fanned out across the pool.

    Chunk submission follows the group's :class:`_ChunkSchedule` (eager
    canonical for unplanned groups, best-first/beam for planned ones);
    the generator drains chunks in canonical order.  Closing the
    generator early — the consumer's streaming cap or safe-frontier
    exit — cancels every submitted-but-unstarted chunk and never
    submits the rest, which is what makes ``max_solutions`` bound
    *work* across the pool, not just output.
    """
    payload = encode_group(prepared, limits)
    pool = _get_pool(workers)
    schedule = _schedule_chunks(pool, payload, prepared, limits, workers)
    return _drain(prepared, schedule)


def _drain(
    prepared,
    schedule: _ChunkSchedule,
) -> Iterator[tuple[int, Any, dict[Node, Nfa]]]:
    # Decoded solutions re-use the parent's tag objects and alphabet;
    # tag identity inside a solution machine is cosmetic (the consumer
    # only compares languages), but sharing keeps reprs coherent.
    tags = {tag.label: tag for tag in prepared.tag_order}
    alphabet = next(iter(prepared.machines.values())).alphabet
    ranges = schedule.ranges
    # dprle-lint: disable=L040 -- drain wall-clock; feeds the parallel.utilization obs gauge
    drain_started = time.perf_counter()
    busy_by_pid: dict[int, float] = {}
    chunk_seconds: list[float] = []
    walked = 0
    consumed = 0
    try:
        for chunk, (start, stop) in enumerate(ranges):
            future, submitted = schedule.task(chunk, consumed)
            consumed += 1
            results, snapshot = future.result()
            walked += prepared.survivors_in(start, stop)
            if snapshot is not None:
                # Pop the transport record before absorbing so the
                # parent's merged metrics stay free of raw clock values.
                meta = snapshot.pop("worker", None) or {}
                started_at = meta.get("started_at")
                if started_at is not None:
                    obs.observe_value(
                        "parallel.queue_wait_seconds",
                        max(0.0, started_at - submitted),
                    )
                pid = meta.get("pid")
                busy = float(meta.get("busy_s", 0.0))
                if pid is not None:
                    busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + busy
                    obs.increment_metric(
                        f"parallel.worker.{pid}.busy_ms", int(busy * 1e3)
                    )
                chunk_seconds.append(busy)
                obs.absorb(snapshot)
                obs.progress(
                    "gci_enumeration", walked, prepared.enumeration_space
                )
            for index, key, docs in results:
                solution = {
                    node: from_dict(doc, tags, alphabet)
                    for node, doc in zip(prepared.var_nodes, docs)
                }
                yield index, key, solution
    finally:
        for chunk in range(consumed, len(ranges)):
            entry = schedule.submitted(chunk)
            if entry is None:
                continue  # never submitted: pure skip, nothing ran
            future, _submitted = entry
            if not future.cancel():
                # Already running (or done): that work happened; count
                # the whole chunk.  Its telemetry snapshot is lost —
                # the cost of not blocking on a cancelled enumeration.
                walked += prepared.survivors_in(*ranges[chunk])
        obs.increment_metric("gci.combinations_enumerated", walked)
        skipped = prepared.enumeration_space - walked
        if skipped > 0:
            obs.increment_metric("gci.combinations_skipped", skipped)
        if chunk_seconds:
            # Chunk skew (slowest chunk vs. mean) and pool utilization
            # (busy seconds vs. wall x observed workers) for this drain.
            # Utilization is an estimate: with interleaved groups the
            # pool serves other drains during this one's wall time.
            mean = sum(chunk_seconds) / len(chunk_seconds)
            if mean > 0:
                obs.set_gauge(
                    "parallel.chunk_skew", max(chunk_seconds) / mean
                )
            # dprle-lint: disable=L040 -- drain wall-clock; feeds the parallel.utilization obs gauge
            elapsed = time.perf_counter() - drain_started
            if busy_by_pid and elapsed > 0:
                utilization = sum(busy_by_pid.values()) / (
                    elapsed * len(busy_by_pid)
                )
                obs.set_gauge(
                    "parallel.utilization", min(1.0, utilization)
                )


def solve_groups(
    graph: DepGraph,
    groups: list[set[Node]],
    limits,
    workers: int,
    take: Optional[int],
) -> list[list[dict[Node, Nfa]]]:
    """Solve independent CI-groups with one shared pool.

    Chunks for *every* parallel-sized group are submitted before any
    group is drained, so the pool interleaves across groups — the
    worklist's independent-group scheduling.  Groups below
    ``limits.min_parallel_combinations`` run serially in-process while
    the pool crunches the big ones.  ``take`` caps each group's
    collected solutions (the worklist consumes at most that prefix);
    the underlying streams are closed at the cap, cancelling unstarted
    chunks.

    Per-group results are exactly ``list(gci.group_solutions(...))``
    prefixes: same candidates, same order, same pruning.
    """
    from .solver import gci

    prepared_groups = []
    for group in groups:
        with obs.span("ci", group_size=len(group)) as sp:
            prepared = gci._prepare_group(graph, group, limits)
            if prepared is None:
                sp.set("combinations", 0)
            else:
                sp.set("combinations", prepared.total_combinations)
        if prepared is not None:
            gci._emit_group_counters(prepared)
        prepared_groups.append(prepared)

    staged: list = []
    for prepared in prepared_groups:
        if prepared is None:
            staged.append(None)
            continue
        if prepared.enumeration_space >= limits.min_parallel_combinations:
            payload = encode_group(prepared, limits)
            pool = _get_pool(workers)
            staged.append(
                (
                    prepared,
                    _schedule_chunks(pool, payload, prepared, limits, workers),
                )
            )
        else:
            staged.append((prepared, None))

    out: list[list[dict[Node, Nfa]]] = []
    for stage in staged:
        if stage is None:
            out.append([])
            continue
        prepared, schedule = stage
        if schedule is None:
            candidates = gci._serial_candidates(prepared, limits)
        else:
            candidates = _drain(prepared, schedule)
        stream = gci._consume(prepared, limits, candidates)
        collected: list[dict[Node, Nfa]] = []
        try:
            for solution in stream:
                collected.append(solution)
                if take is not None and len(collected) >= take:
                    break
        finally:
            stream.close()
        out.append(collected)
    return out
