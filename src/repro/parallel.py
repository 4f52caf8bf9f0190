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
  :class:`repro.cache.LangCache`, warm across tasks, as a memo for its
  own kernels.  Workers ship solutions only; the parent's selector
  keys them itself.
* **Merged telemetry.**  When the parent is collecting, each task runs
  under its own :func:`repro.obs.collect` and returns the snapshot;
  the parent folds it into every active sink via
  :func:`repro.obs.absorb`, so ``--stats-json`` totals cover worker
  work too.

:func:`resolve_workers` decides the fan-out width (explicit setting,
else the ``DPRLE_WORKERS`` environment variable, else serial), keeps
groups below :data:`MIN_PARALLEL_COMBINATIONS` in-process, and pins
workers themselves to serial — a worker never nests a pool.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
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
from .constraints.depgraph import Node

__all__ = [
    "resolve_workers",
    "parallel_candidates",
    "encode_group",
    "shutdown",
]

#: Groups with fewer bridge combinations than this are enumerated
#: in-process even when workers are configured: the task encode/decode
#: would cost more than the enumeration.
MIN_PARALLEL_COMBINATIONS = 64

# Chunks per worker: small enough to amortize the per-task payload
# decode (memoized per group anyway), large enough that a straggler
# chunk cannot idle the rest of the pool for long.
_CHUNKS_PER_WORKER = 4

# Set in worker processes by _run_chunk; makes resolve_workers return 0
# so a worker's own enumeration can never open a nested pool.
_IN_WORKER = False


def resolve_workers(requested: Optional[int], space: Optional[int] = None) -> int:
    """The effective worker count: explicit setting, else the
    ``DPRLE_WORKERS`` environment variable, else 0 (serial).  Always 0
    inside a worker process, and for a combination ``space`` smaller
    than :data:`MIN_PARALLEL_COMBINATIONS`."""
    if _IN_WORKER:
        return 0
    if space is not None and space < MIN_PARALLEL_COMBINATIONS:
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


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once its parent process is gone.

    A parent killed outright never shuts its pool down, and an orphaned
    worker would live on holding the parent's inherited descriptors (a
    daemon's stdout pipe among them).  A daemon thread polls for the
    reparenting that follows the parent's death.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, name="dprle-parent-watch", daemon=True).start()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _pools.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        )
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


def encode_group(prepared) -> dict[str, Any]:
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
        "collect": bool(obs.active_sinks()),
    }


# -- worker side ------------------------------------------------------------


@dataclass
class _WorkerState:
    prepared: Any  # gci._PreparedGroup
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
    )
    return _WorkerState(prepared, payload["collect"])


def _run_chunk(
    payload: dict[str, Any], start: int, stop: int
) -> tuple[list, Optional[dict[str, Any]]]:
    """Worker entry point: enumerate and maximize combinations
    ``[start, stop)``.

    Returns ``(results, obs snapshot or None)`` where each result is
    ``(canonical index, [encoded machine per var node])``.
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
        walk = gci._iter_candidates(state.prepared, start, stop)
        for index, solution in gci._maximized(state.prepared, walk):
            docs = [to_dict(solution[node]) for node in state.prepared.var_nodes]
            results.append((index, docs))

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


def parallel_candidates(
    prepared, workers: int
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    """The parallel stage-5 producer (the fan-out branch of
    ``gci._candidates``): the in-process walk's ``(index, solution)``
    stream, same canonical order, work fanned out across the pool.

    Every chunk is submitted eagerly, in canonical order, and drained in
    the same order.  Each future is paired with its submit timestamp so
    the drain can measure queue wait (submit → worker pickup, both on
    the fork-shared perf_counter clock).  Closing the generator early —
    the selector's ``max_solutions == 1`` cap — cancels every chunk that
    has not started, which is what makes that cap bound *work* across
    the pool, not just output.
    """
    payload = encode_group(prepared)
    pool = _get_pool(workers)
    ranges = _chunk_ranges(prepared.total_combinations, workers)
    tasks = [
        (
            pool.submit(_run_chunk, payload, start, stop),
            # dprle-lint: disable=L040 -- queue-entry timestamp; feeds parallel.queue_wait_seconds
            time.perf_counter(),
        )
        for start, stop in ranges
    ]
    return _drain(prepared, ranges, tasks)


def _drain(
    prepared,
    ranges: list[tuple[int, int]],
    tasks: list[tuple[Future, float]],
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    # Decoded solutions re-use the parent's tag objects and alphabet;
    # tag identity inside a solution machine is cosmetic (the consumer
    # only compares languages), but sharing keeps reprs coherent.
    tags = {tag.label: tag for tag in prepared.tag_order}
    alphabet = next(iter(prepared.machines.values())).alphabet
    # dprle-lint: disable=L040 -- drain wall-clock; feeds the parallel.utilization obs gauge
    drain_started = time.perf_counter()
    busy_by_pid: dict[int, float] = {}
    chunk_seconds: list[float] = []
    walked = 0
    consumed = 0
    try:
        for (start, stop), (future, submitted) in zip(ranges, tasks):
            consumed += 1
            results, snapshot = future.result()
            walked += stop - start
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
                    "gci_enumeration", walked, prepared.total_combinations
                )
            for index, docs in results:
                solution = {
                    node: from_dict(doc, tags, alphabet)
                    for node, doc in zip(prepared.var_nodes, docs)
                }
                yield index, solution
    finally:
        for (start, stop), (future, _submitted) in zip(
            ranges[consumed:], tasks[consumed:]
        ):
            if not future.cancel():
                # Already running (or done): that work happened; count
                # the whole chunk.  Its telemetry snapshot is lost —
                # the cost of not blocking on a cancelled enumeration.
                walked += stop - start
        obs.increment_metric("gci.combinations_enumerated", walked)
        skipped = prepared.total_combinations - walked
        if skipped > 0:
            obs.increment_metric("gci.combinations_skipped", skipped)
        if chunk_seconds:
            # Chunk skew (slowest chunk vs. mean) and pool utilization
            # (busy seconds vs. wall x observed workers) for this drain.
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
