"""Multiprocess fan-out for the GCI bridge-combination enumeration.

The stage-5 enumeration of :mod:`repro.solver.gci` walks a product
space of bridge-edge choices whose combinations are independent of one
another — a textbook fan-out.  This module chunks the canonical
combination index range across a :class:`~concurrent.futures.
ProcessPoolExecutor`, ships each worker the prepared group as one
pickle (state ids and ``BridgeTag`` identity survive it, so the bridge
edges and occurrence boundaries stay valid references into the
unpickled machines), and re-assembles the results *in canonical index
order*, so the output is byte-for-byte the serial enumeration's
regardless of worker count or chunk boundaries.

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
import dataclasses
import itertools
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Iterator, Optional

from . import cache as cache_mod
from . import obs
from .automata.nfa import Nfa
from .constraints.depgraph import Node

__all__ = ["resolve_workers", "parallel_candidates", "shutdown"]

#: Groups with fewer bridge combinations than this are enumerated
#: in-process even when workers are configured: shipping the group and
#: its results would cost more than the enumeration.
MIN_PARALLEL_COMBINATIONS = 64

# Chunks per worker: small enough to amortize the per-task overhead
# (the group is unpickled once per worker anyway), large enough that a
# straggler chunk cannot idle the rest of the pool for long.
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


# -- worker side ------------------------------------------------------------

# Unpickled groups, keyed by group_key, kept across tasks so the many
# chunks of one group unpickle it once per worker process.
_groups: "OrderedDict[int, Any]" = OrderedDict()  # gci._PreparedGroup
_GROUPS_KEEP = 4

# One language cache per worker process, warm across tasks.
_worker_cache: Optional["cache_mod.LangCache"] = None


def _run_chunk(
    group_key: int, group: bytes, collect: bool, start: int, stop: int
) -> tuple[list, Optional[dict[str, Any]]]:
    """Worker entry point: enumerate and maximize combinations
    ``[start, stop)`` of the pickled prepared group.

    Returns ``(results, obs snapshot or None)`` where each result is
    ``(canonical index, [solution machine per var node])``.
    """
    global _IN_WORKER, _worker_cache
    _IN_WORKER = True
    # dprle-lint: disable=L040 -- transport timestamp; feeds the parallel.chunk_seconds obs histogram
    chunk_started = time.perf_counter()
    # Forked ambient state from the parent: drop it (see module doc).
    obs._sinks.set(None)
    cache_mod._active.set(None)

    from .solver import gci

    prepared = _groups.get(group_key)
    if prepared is None:
        prepared = _groups[group_key] = pickle.loads(group)
        while len(_groups) > _GROUPS_KEEP:
            _groups.popitem(last=False)
    if _worker_cache is None:
        _worker_cache = cache_mod.LangCache()

    results: list = []

    def run() -> None:
        walk = gci._iter_candidates(prepared, start, stop)
        for index, solution in gci._maximized(prepared, walk):
            results.append((index, [solution[node] for node in prepared.var_nodes]))

    snapshot: Optional[dict[str, Any]] = None
    with _worker_cache.activate():
        if collect:
            with obs.collect(max_recorded_spans=64) as collector:
                run()
            # dprle-lint: disable=L040 -- worker-side busy time folded into obs via absorb()
            busy = time.perf_counter() - chunk_started
            collector.metrics.histogram("parallel.chunk_seconds").observe(busy)
            collector.metrics.histogram(
                "parallel.chunk_combinations", obs.SIZE_BUCKETS
            ).observe(stop - start)
            snapshot = collector.to_dict()
            # Transport-only facts for the parent's drain (popped there,
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


_group_keys = itertools.count()


def parallel_candidates(
    prepared, workers: int, progress: list[int]
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    """The parallel stage-5 producer (the fan-out branch of
    ``gci._candidates``): the in-process walk's ``(index, solution)``
    stream, same canonical order, work fanned out across the pool.

    The group is pickled once, with only the machines the enumeration
    reads (the occurrence tops and the leaves).  Every chunk is
    submitted eagerly, in canonical order, and drained in the same
    order.  Each future is paired with its submit timestamp so the drain
    can measure queue wait (submit → worker pickup, both on the
    fork-shared perf_counter clock).  Closing the generator early — the
    selector's ``max_solutions == 1`` cap — cancels every chunk that has
    not started, which is what makes that cap bound *work* across the
    pool, not just output.  ``progress`` is the producer's one-element
    work count: drained chunks, and chunks already running when the
    generator closes, add their whole range to it.

    A pool that lost a worker is shut down and dropped before its
    ``BrokenProcessPool`` propagates, so the next fan-out gets a fresh
    pool.
    """
    needed = {occ.top for occ in prepared.occurrences} | prepared.leaves
    shipped = dataclasses.replace(
        prepared,
        machines={n: m for n, m in prepared.machines.items() if n in needed},
    )
    group_key, group = next(_group_keys), pickle.dumps(shipped)
    collect = bool(obs.active_sinks())
    pool = _get_pool(workers)
    ranges = _chunk_ranges(prepared.total_combinations, workers)
    try:
        tasks = [
            (
                pool.submit(_run_chunk, group_key, group, collect, start, stop),
                # dprle-lint: disable=L040 -- queue-entry timestamp; feeds parallel.queue_wait_seconds
                time.perf_counter(),
            )
            for start, stop in ranges
        ]
        yield from _drain(prepared, ranges, tasks, progress)
    except BrokenProcessPool:
        _pools.pop(workers, None)
        pool.shutdown(wait=False, cancel_futures=True)
        raise


def _drain(
    prepared,
    ranges: list[tuple[int, int]],
    tasks: list[tuple[Future, float]],
    progress: list[int],
) -> Iterator[tuple[int, dict[Node, Nfa]]]:
    # dprle-lint: disable=L040 -- drain wall-clock; feeds the parallel.utilization obs gauge
    drain_started = time.perf_counter()
    busy_by_pid: dict[int, float] = {}
    chunk_seconds: list[float] = []
    consumed = 0
    try:
        for (start, stop), (future, submitted) in zip(ranges, tasks):
            consumed += 1
            results, snapshot = future.result()
            progress[0] += stop - start
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
            obs.progress("gci_enumeration", progress[0], prepared.total_combinations)
            for index, machines in results:
                yield index, dict(zip(prepared.var_nodes, machines))
    finally:
        for (start, stop), (future, _submitted) in zip(
            ranges[consumed:], tasks[consumed:]
        ):
            if not future.cancel():
                # Already running (or done): that work happened; count
                # the whole chunk.  Its telemetry snapshot is lost —
                # the cost of not blocking on a cancelled enumeration.
                progress[0] += stop - start
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
