"""Request coalescing: queued jobs grouped into compatible batches.

The daemon funnels every expensive request (solve / check / analyze)
through one :class:`Batcher`.  A single dispatcher coroutine pulls
*batches* — up to ``max_batch`` jobs sharing a compatibility key,
collected over a short ``batch_window`` — and executes each batch on
one worker thread, under the shared language cache.  Batching is what
lets a burst of requests over the same corpus amortize signature work
within one cache activation instead of interleaving arbitrarily.

The compatibility key is ``(kind, workers, plan)``: jobs in a batch
must agree on the endpoint and on every knob that changes how the
solver pool is driven (``repro.parallel`` fan-out, planner mode), so
one batch is homogeneous work.  Incompatible jobs are left queued,
preserving arrival order within each key.

Deadlines are *absolute* event-loop timestamps (``loop.time()``-based,
attached at enqueue).  The batcher itself never drops a job — expiry is
enforced by the dispatcher at dequeue and between batch items, so an
expired job is always *answered* (with a deadline error), never
silently discarded.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["CompatKey", "DeadlineExceeded", "Job", "Batcher"]

#: The batching compatibility key: (kind, workers, plan), stringified
#: so heterogeneous payload values compare stably.
CompatKey = tuple[str, str, str]


class DeadlineExceeded(Exception):
    """The job's deadline passed before (or while) it was executed."""


@dataclass
class Job:
    """One queued request, resolved through ``future``."""

    kind: str
    payload: dict[str, Any]
    compat: CompatKey
    future: "asyncio.Future[dict[str, Any]]"
    #: Event-loop timestamp at enqueue (for queue-wait telemetry).
    enqueued_at: float
    #: Absolute event-loop deadline, or None for no deadline.
    deadline: Optional[float] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class Batcher:
    """An awaitable queue that yields compatible batches.

    ``close()`` stops admission; :meth:`next_batch` then drains what is
    already queued and finally returns None — the drain contract the
    daemon's graceful shutdown relies on (queued jobs are executed, not
    dropped).
    """

    batch_window: float = 0.005
    max_batch: int = 16
    _queue: deque[Job] = field(default_factory=deque)
    _wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    _closed: bool = False

    def put(self, job: Job) -> bool:
        """Enqueue a job; False (and nothing queued) after close()."""
        if self._closed:
            return False
        self._queue.append(job)
        self._wakeup.set()
        return True

    def close(self) -> None:
        """Stop admitting jobs; queued ones still drain."""
        self._closed = True
        self._wakeup.set()

    def __len__(self) -> int:
        return len(self._queue)

    async def next_batch(self) -> Optional[list[Job]]:
        """The next compatible batch, or None once closed and drained."""
        while not self._queue:
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()
        if len(self._queue) < self.max_batch and self.batch_window > 0:
            # Give a concurrent burst a moment to coalesce.  Skipped
            # when the queue is already full enough and during shutdown
            # drain (closed ⇒ nothing new can arrive anyway).
            if not self._closed:
                await asyncio.sleep(self.batch_window)
        first = self._queue.popleft()
        batch = [first]
        kept: deque[Job] = deque()
        while self._queue and len(batch) < self.max_batch:
            job = self._queue.popleft()
            if job.compat == first.compat:
                batch.append(job)
            else:
                kept.append(job)
        kept.extend(self._queue)
        self._queue = kept
        return batch
