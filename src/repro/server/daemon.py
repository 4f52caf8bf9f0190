"""The solve daemon: an asyncio HTTP/JSON-RPC front end on the solver.

``dprle serve`` turns the one-shot CLI into a persistent service (the
deployment shape the paper's PHP analysis implies: one resident
decision procedure answering many queries).  The architecture is two
loops sharing one process:

* **Connection handlers** (one task per TCP connection) parse HTTP
  requests (:mod:`repro.server.httpio`), answer ``/healthz`` and
  ``/stats`` inline, and turn ``/solve``, ``/check``, ``/analyze`` and
  ``/rpc`` bodies into jobs on one FIFO queue, then await each job's
  future.
* **One dispatcher** takes the oldest job and executes it — one job at
  a time, on a worker thread via ``asyncio.to_thread`` — against the
  daemon-lifetime :class:`~repro.cache.LangCache` (optionally backed by
  the persistent :class:`~repro.cache.store.SignatureStore`).  Running
  exactly one job at a time is a correctness choice, not an accident:
  the language cache and the observability collector are shared
  mutable state, and the solver's own parallelism
  (:mod:`repro.parallel`, driven by the ``workers`` knob) is where
  multi-core wins come from.

Every job carries an absolute deadline (or none), stamped at enqueue
on the event loop's clock.  The dispatcher checks it once, at dequeue:
an expired job is *answered* with a deadline error, never dropped; a
job that starts in time runs to completion.

Telemetry: the daemon keeps a lifetime collector whose registry backs
``/stats``; every answered request counts ``server.requests`` (and
``server.errors`` / ``server.deadline_exceeded`` as applicable), every
job executes under a ``server_request`` span — which is what mints
per-request trace ids in the ``--journal`` event stream — and queue
behavior is visible as ``server.queue_depth`` /
``server.queue_wait_seconds`` / ``server.inflight``.  All clock reads
use the event loop's clock (``loop.time()``), keeping raw ``time.*``
calls out of the server per the ``L040`` timing rule.

Shutdown (SIGTERM/SIGINT) is a drain, not a drop: stop accepting
connections, let every already-read request finish and answer, run the
queue dry, flush the memo store, then exit 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Optional

from .. import obs
from ..cache import LangCache
from ..cache.store import SignatureStore
from .config import ServerConfig
from .handlers import QUEUED_KINDS, RequestError, run_job
from .httpio import HttpError, HttpRequest, read_request, render_response

__all__ = ["SCHEMA", "SolveDaemon", "serve"]

#: Version header of every response envelope.
SCHEMA = "dprle.server/1"

#: Grace added to a request's deadline before the *connection side* of
#: the daemon gives up on the future: the dispatcher is the authority on
#: deadline expiry (it answers a job that has expired by dequeue), and
#: this margin lets its verdict win when the deadline lapses while an
#: earlier job runs.  A job that is already running when its deadline
#: lapses is not interrupted; the connection answers 504 after the grace.
_DEADLINE_GRACE = 0.25


class DeadlineExceeded(Exception):
    """The job's deadline passed before it was dequeued."""


@dataclass
class Job:
    """One queued request, resolved through ``future``."""

    kind: str
    payload: dict[str, Any]
    future: "asyncio.Future[dict[str, Any]]"
    #: Event-loop timestamp at enqueue (for queue-wait telemetry).
    enqueued_at: float
    #: Absolute event-loop deadline, or None for no deadline.
    deadline: Optional[float] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


def _consume_exception(future: "asyncio.Future[dict[str, Any]]") -> None:
    """Retrieve an abandoned future's exception so it never logs as
    unhandled (the client stopped waiting at its deadline)."""
    if not future.cancelled():
        future.exception()


class SolveDaemon:
    """One daemon instance: construct with a config, ``await run()``.

    Tests drive it in-process (``ready``/``port``/``request_stop``);
    the CLI wraps it in :func:`serve`.
    """

    def __init__(self, config: ServerConfig):
        self._config = config
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event = asyncio.Event()
        self._stopping = False
        #: FIFO of jobs; ``None`` is the end-of-queue mark put by the
        #: drain, after which :attr:`_closed` refuses new jobs.
        self._queue: "asyncio.Queue[Optional[Job]]" = asyncio.Queue()
        self._closed = False
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        self._collector: Optional[obs.Collector] = None
        self._cache: Optional[LangCache] = None
        self._store: Optional[SignatureStore] = None
        self._started = 0.0
        #: Set once the daemon is listening (or has failed to start);
        #: lets a test thread wait for :attr:`port` deterministically.
        self.ready = threading.Event()
        #: The actually-bound port (meaningful once :attr:`ready` set).
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    def request_stop(self) -> None:
        """Begin graceful shutdown; safe from any thread or a signal."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._begin_stop)

    def _begin_stop(self) -> None:
        if not self._stopping:
            self._stopping = True
            self._stop_event.set()

    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        self._loop = loop
        config = self._config
        try:
            with ExitStack() as stack:
                store: Optional[SignatureStore] = None
                if config.cache_db is not None:
                    store = SignatureStore(config.cache_db)
                    stack.callback(store.close)
                cache = LangCache(store=store)
                self._store = store
                self._cache = cache
                if config.journal is not None:
                    stack.enter_context(obs.journal_to(config.journal))
                collector = stack.enter_context(
                    obs.collect(max_recorded_spans=2048)
                )
                self._collector = collector
                stack.enter_context(cache.activate())
                try:
                    server = await asyncio.start_server(
                        self._on_connection, config.host, config.port
                    )
                except OSError as error:
                    print(
                        f"dprle serve: cannot bind "
                        f"{config.host}:{config.port}: {error}",
                        file=sys.stderr,
                    )
                    return 2
                stack.callback(server.close)
                sockname = server.sockets[0].getsockname()
                self.port = int(sockname[1])
                if config.check_only:
                    store_state = "ready" if store is not None else "disabled"
                    print(
                        f"dprle serve: ok (bind {config.host}:{self.port}, "
                        f"store {store_state})",
                        flush=True,
                    )
                    return 0
                return await self._serve_until_stopped(server, loop)
        finally:
            self.ready.set()

    async def _serve_until_stopped(
        self, server: asyncio.Server, loop: asyncio.AbstractEventLoop
    ) -> int:
        self._started = loop.time()
        dispatcher = asyncio.ensure_future(self._dispatch())
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self._begin_stop)
        print(
            f"dprle serve: listening on {self._config.host}:{self.port}",
            flush=True,
        )
        self.ready.set()
        await self._stop_event.wait()

        # Drain: no new connections; connections finish the request
        # they already read (their futures need the dispatcher, so it
        # stays up); then the queue runs dry and the dispatcher exits.
        server.close()
        await server.wait_closed()
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=60.0)
        self._closed = True
        self._queue.put_nowait(None)
        await dispatcher
        for task in list(self._conn_tasks):
            task.cancel()
        if self._store is not None:
            self._store.flush()
        print("dprle serve: shutdown complete", flush=True)
        return 0

    # -- the dispatcher ------------------------------------------------

    def _metrics(self) -> obs.MetricsRegistry:
        assert self._collector is not None
        return self._collector.metrics

    async def _dispatch(self) -> None:
        assert self._loop is not None
        metrics = self._metrics()
        while (job := await self._queue.get()) is not None:
            metrics.gauge("server.queue_depth").set(float(self._queue.qsize()))
            now = self._loop.time()
            metrics.histogram("server.queue_wait_seconds").observe(
                now - job.enqueued_at
            )
            if job.expired(now):
                self._resolve(
                    job, None, DeadlineExceeded("deadline passed while queued")
                )
                continue
            metrics.gauge("server.inflight").set(1.0)
            try:
                result = await asyncio.to_thread(self._run, job)
            except Exception as error:  # answered, not fatal to the daemon
                self._resolve(job, None, error)
            else:
                self._resolve(job, result, None)
            metrics.gauge("server.inflight").set(0.0)

    def _resolve(
        self,
        job: Job,
        result: Optional[dict[str, Any]],
        error: Optional[BaseException],
    ) -> None:
        if job.future.done():
            return
        if error is not None:
            job.future.set_exception(error)
        else:
            job.future.set_result(result if result is not None else {})

    def _run(self, job: Job) -> dict[str, Any]:
        """Execute one job on the worker thread.

        ``asyncio.to_thread`` propagates the dispatcher's context, so
        the daemon's cache activation, collector, and journal sink are
        all live here; the ``server_request`` span is depth-zero under
        the collector root, which is what assigns each request its
        journal trace id.
        """
        with obs.span("server_request", endpoint=job.kind):
            return run_job(job.kind, job.payload, self._config)

    # -- connections ---------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, OSError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._loop is not None
        while True:
            try:
                request = await self._read_or_stop(reader)
            except HttpError as error:
                await self._respond(
                    writer, error.status,
                    self._error_doc(error.status, error.message),
                    close=True,
                )
                return
            if request is None:
                return
            started = self._loop.time()
            close = self._stopping or not request.keep_alive
            status, document = await self._handle(request)
            await self._respond(
                writer, status, document,
                close=close or self._stopping, started=started,
            )
            if close or self._stopping:
                return

    async def _read_or_stop(
        self, reader: asyncio.StreamReader
    ) -> Optional[HttpRequest]:
        """One request, or None when shutdown interrupts an idle read.

        A request whose bytes were already in flight when the stop
        signal lands still wins the race and gets answered — the
        no-dropped-requests half of the drain contract.
        """
        if self._stopping:
            return None
        read_task = asyncio.ensure_future(
            read_request(reader, self._config.max_body_bytes)
        )
        stop_task = asyncio.ensure_future(self._stop_event.wait())
        done, _ = await asyncio.wait(
            {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if read_task in done:
            stop_task.cancel()
            return read_task.result()
        read_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await read_task
        return None

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: dict[str, Any],
        *,
        close: bool,
        started: Optional[float] = None,
    ) -> None:
        assert self._loop is not None
        metrics = self._metrics()
        metrics.counter("server.requests").inc()
        if status >= 400:
            metrics.counter("server.errors").inc()
        if status == 504:
            metrics.counter("server.deadline_exceeded").inc()
        if started is not None:
            metrics.histogram("server.request_seconds").observe(
                self._loop.time() - started
            )
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        writer.write(render_response(status, body, close=close))
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _handle(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        try:
            return await self._route(request)
        except RequestError as error:
            return error.status, self._error_doc(
                error.status, error.message, error.code
            )
        except DeadlineExceeded as error:
            return 504, self._error_doc(504, str(error) or "deadline exceeded")
        except Exception as error:  # a handler fault is one bad response
            return 500, self._error_doc(
                500, f"internal error: {type(error).__name__}: {error}"
            )

    async def _route(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        path, method = request.path, request.method
        if path == "/healthz":
            self._require_method(method, "GET")
            return 200, self._health_doc()
        if path == "/stats":
            self._require_method(method, "GET")
            return 200, self._stats_doc()
        kind = path[1:]
        if kind in QUEUED_KINDS:
            self._require_method(method, "POST")
            payload = self._parse_body(request.body)
            result = await self._enqueue_and_wait(kind, payload)
            return 200, {"schema": SCHEMA, "endpoint": kind, "result": result}
        if path == "/rpc":
            self._require_method(method, "POST")
            return 200, await self._handle_rpc(request.body)
        raise RequestError(404, f"no such endpoint: {path}")

    def _require_method(self, method: str, expected: str) -> None:
        if method != expected:
            raise RequestError(405, f"use {expected} for this endpoint")

    def _parse_body(self, body: bytes) -> dict[str, Any]:
        if not body:
            raise RequestError(400, "request body must be a JSON object")
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError) as error:
            raise RequestError(400, f"body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        return payload

    async def _enqueue_and_wait(
        self, kind: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        assert self._loop is not None
        now = self._loop.time()
        deadline = self._deadline_for(payload, now)
        if self._closed:
            raise RequestError(503, "server is shutting down")
        future: "asyncio.Future[dict[str, Any]]" = self._loop.create_future()
        self._queue.put_nowait(
            Job(kind, payload, future, enqueued_at=now, deadline=deadline)
        )
        self._metrics().gauge("server.queue_depth").set(
            float(self._queue.qsize())
        )
        if deadline is None:
            return await future
        remaining = max(deadline - self._loop.time(), 0.0)
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout=remaining + _DEADLINE_GRACE
            )
        except asyncio.TimeoutError:
            future.add_done_callback(_consume_exception)
            raise DeadlineExceeded("deadline exceeded") from None

    def _deadline_for(
        self, payload: dict[str, Any], now: float
    ) -> Optional[float]:
        value = payload.get("deadline_ms")
        if value is None:
            if self._config.default_deadline is None:
                return None
            return now + self._config.default_deadline
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(400, "field 'deadline_ms' must be a number")
        return now + max(float(value), 0.0) / 1000.0

    # -- JSON-RPC 2.0 --------------------------------------------------

    async def _handle_rpc(self, body: bytes) -> dict[str, Any]:
        try:
            doc = json.loads(body) if body else None
        except (ValueError, UnicodeDecodeError):
            return _rpc_error(None, -32700, "parse error")
        if not isinstance(doc, dict) or doc.get("jsonrpc") != "2.0":
            return _rpc_error(None, -32600, "invalid request")
        rpc_id = doc.get("id")
        method = doc.get("method")
        if not isinstance(method, str):
            return _rpc_error(rpc_id, -32600, "invalid request")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            return _rpc_error(rpc_id, -32602, "params must be an object")
        if method == "health":
            return _rpc_result(rpc_id, self._health_doc())
        if method == "stats":
            return _rpc_result(rpc_id, self._stats_doc())
        if method not in QUEUED_KINDS:
            return _rpc_error(rpc_id, -32601, f"method not found: {method}")
        try:
            result = await self._enqueue_and_wait(method, params)
        except RequestError as error:
            code = -32602 if error.status == 400 else -32000
            return _rpc_error(rpc_id, code, error.message)
        except DeadlineExceeded:
            return _rpc_error(rpc_id, -32000, "deadline exceeded")
        except Exception as error:  # one bad response, not a dead daemon
            return _rpc_error(
                rpc_id, -32603, f"internal error: {type(error).__name__}"
            )
        return _rpc_result(rpc_id, result)

    # -- inline documents ----------------------------------------------

    def _health_doc(self) -> dict[str, Any]:
        return {"schema": SCHEMA, "ok": True, "stopping": self._stopping}

    def _stats_doc(self) -> dict[str, Any]:
        assert self._loop is not None and self._cache is not None
        return {
            "schema": SCHEMA,
            "uptime_s": self._loop.time() - self._started,
            "stopping": self._stopping,
            "queue_depth": self._queue.qsize(),
            "cache": self._cache.stats(),
            "metrics": self._metrics().snapshot(),
        }

    def _error_doc(
        self, status: int, message: str, code: Optional[str] = None
    ) -> dict[str, Any]:
        error: dict[str, Any] = {"status": status, "message": message}
        if code is not None:
            error["code"] = code
        return {"schema": SCHEMA, "error": error}


def _rpc_result(rpc_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    return {"jsonrpc": "2.0", "id": rpc_id, "result": result}


def _rpc_error(rpc_id: Any, code: int, message: str) -> dict[str, Any]:
    return {
        "jsonrpc": "2.0",
        "id": rpc_id,
        "error": {"code": code, "message": message},
    }


def serve(config: ServerConfig) -> int:
    """Run the daemon to completion (the ``dprle serve`` body)."""
    daemon = SolveDaemon(config)
    try:
        return asyncio.run(daemon.run())
    except KeyboardInterrupt:
        return 130
