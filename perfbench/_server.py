"""The ``server_mix`` workload: a ``dprle serve`` daemon and two clients.

The daemon runs as its own process with a fresh ``--cache-db``, exactly
as a user starts it.  Two clients (the host has two CPUs) drive it in a
closed loop with no think time, each sending its next request as soon
as its previous answer arrives:

* the *solve* client sends 96 ``/solve`` requests: 16 ``wide``-family
  sources, ``(n, m)`` in ``{4..7}^2``, six times each, asking for one
  solution;
* the *analyze* client sends 38 ``/analyze`` requests: the 16 fast
  Fig. 12 files twice each (the second time the daemon's cache is warm
  for the file), and, at fixed places, three novel ``secure``-shaped
  files at scales 0.08, 0.14 and 0.20 -- cold for the cache, which costs
  them more than it saves -- each repeated seven requests later, which
  the cache repays.

The seed orders each client's requests.  Because each client has a
stream of its own, the daemon serves the two in turn while both are
busy, so the first 38 solves each wait behind one analysis and the rest
run alone, whatever the order.  With one shared stream, how many quick
solves happened to queue behind slow analyses changed with the seed,
and moved the median latency by 10-18%.  A run plays at least three
replicas (402 requests), each on a fresh daemon, and reports latency
percentiles over all their requests and the median replica for the
rest, so that one replica caught in a busy spell of the host does not
move the result.  The traced run alternates an untraced and a traced
replica (``_daemon.py``).
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import pathlib
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import _checks
import _layers
import _measure
import _workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

ANALYZE_REPEATS = 2
SOLVE_REPEATS = 6
SCALES = (0.08, 0.14, 0.2)
#: Replicas every untraced run plays, however short ``--seconds`` is.
MIN_REPLICAS = 3
WIDE_SIZES = tuple((n, m) for n in range(4, 8) for m in range(4, 8))

WIDE_TEMPLATE = """var va, vb, vc;
va <= /(a|b)*/;
vb <= /(a|b)*/;
vc <= /(a|b)*/;
va . vb <= /(a|b){{{n}}}/;
vb . vc <= /(a|b){{{m}}}/;
"""


#: The analyze client's slots: A(nalysis of a fast Fig. 12 file),
#: N(ovel file), R(epeat of the last novel file).
ANALYSIS_SLOTS = ("AAN" + "A" * 6 + "R" + "AA") * 3 + "AA"

_LISTENING = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


@dataclass
class Request:
    """One request of the stream; ``key`` names its distinct payload."""

    key: str
    path: str
    body: bytes
    check: Callable[[dict], list[str]]


@dataclass
class Outcome:
    request: Request
    seconds: float
    status: Optional[int]
    body: bytes


@dataclass
class Payloads:
    """Every distinct request a replica draws from."""

    solves: list[Request]
    analyses: list[Request]
    novel: list[tuple[Request, Request]]  # (first time, repeat)


def _analyze(key: str, source: str, check: Callable[[dict], list[str]]) -> Request:
    body = json.dumps({"source": source}).encode()
    return Request(key, "/analyze", body, check)


def payloads() -> Payloads:
    from repro.analysis import VULN_SPECS, make_vulnerable_source

    fig12 = _checks.load("fig12.json")
    server = _checks.load("server.json")
    analyses = []
    for key, source in _workloads.fig12_sources(heavy=False):
        check = functools.partial(_checks.check_fig12, key, fig12, source)
        analyses.append(_analyze(key, source, check))
    solves = []
    for n, m in WIDE_SIZES:
        body = json.dumps(
            {"source": WIDE_TEMPLATE.format(n=n, m=m), "max_solutions": 1}
        ).encode()
        check = functools.partial(
            _checks.check_solutions, server["wide_family"], n=n, m=m
        )
        solves.append(Request(f"wide/{n}x{m}", "/solve", body, check))
    style = fig12["styles"][server["novel_style"]]
    secure = next(spec for spec in VULN_SPECS if spec.heavy)
    novel = []
    for scale in SCALES:
        source = make_vulnerable_source(secure, scale)
        check = functools.partial(_checks.check_exploit, "secure", style, source)
        key = f"novel/{scale}"
        novel.append((_analyze(key, source, check), _analyze(f"{key}/repeat", source, check)))
    return Payloads(solves, analyses, novel)


def replica(pool: Payloads, rng: random.Random) -> list[list[Request]]:
    """One replica: the analyze client's stream and the solve client's."""
    solves = pool.solves * SOLVE_REPEATS
    analyses = pool.analyses * ANALYZE_REPEATS
    novel = list(pool.novel)
    for requests in (solves, analyses, novel):
        rng.shuffle(requests)
    firsts = iter([first for first, _ in novel])
    repeats = iter([repeat for _, repeat in novel])
    pick = {"A": iter(analyses), "N": firsts, "R": repeats}
    return [[next(pick[slot]) for slot in ANALYSIS_SLOTS], solves]


# -- the daemon ------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The daemon's environment: the checkout's ``src`` first, serial
    solves, unbuffered output, and temporary files (sqlite's included)
    kept inside the checkout."""
    env = dict(os.environ)
    env.pop("DPRLE_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(HERE / "out" / "tmp")
    return env


class Daemon:
    """A running daemon process: started by the constructor, ready once
    :meth:`wait_ready` returns, reaped by :meth:`stop`."""

    def __init__(self, store_dir: pathlib.Path, traced_to: Optional[pathlib.Path] = None):
        self.store_dir = store_dir
        serve = ["--port", "0", "--cache-db", str(store_dir / "sig.db")]
        if traced_to is None:
            argv = [sys.executable, "-m", "repro.tools.cli", "serve", *serve]
        else:
            argv = [sys.executable, str(HERE / "_daemon.py"), str(traced_to), *serve]
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        self.port: Optional[int] = None
        self.output: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.output.append(line)
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the daemon listens and ``/healthz`` answers."""
        if not self._ready.wait(timeout) or self.port is None:
            raise RuntimeError("daemon did not start: " + "".join(self.output))
        if self.get("/healthz").get("ok") is not True:
            raise RuntimeError("daemon /healthz is not ok")

    def get(self, path: str) -> dict:
        assert self.port is not None
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> tuple[float, float]:
        """SIGTERM (the daemon drains), reap; the daemon's lifetime CPU
        seconds and peak RSS in MiB."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
        code, cpu_s, rss_mb = _measure.reap(self.process.pid, timeout=60.0)
        self.process.returncode = code
        self._reader.join(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"daemon exit {code}: " + "".join(self.output))
        return cpu_s, rss_mb

    def kill(self) -> None:
        """Make sure the process is gone (after an error elsewhere)."""
        if self.process.returncode is None:
            self.process.kill()
            self.process.returncode, _, _ = _measure.reap(self.process.pid, timeout=10.0)


# -- driving it -------------------------------------------------------------


def drive(port: int, streams: list[list[Request]]) -> tuple[list[Outcome], float]:
    """Send each stream from its own closed-loop client; the outcomes in
    completion order, and the makespan in seconds."""
    outcomes: list[Outcome] = []
    lock = threading.Lock()

    def client(stream: list[Request]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            for request in stream:
                started = _measure.wall()
                try:
                    conn.request(
                        "POST", request.path, body=request.body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    body = response.read()
                    status: Optional[int] = response.status
                except (OSError, http.client.HTTPException) as error:
                    body, status = str(error).encode(), None
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                seconds = _measure.wall() - started
                with lock:
                    outcomes.append(Outcome(request, seconds, status, body))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(stream,)) for stream in streams]
    started = _measure.wall()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, _measure.wall() - started


def check_outcomes(outcomes: list[Outcome], tally: _checks.Tally) -> None:
    for outcome in outcomes:
        label = outcome.request.key
        if outcome.status != 200:
            tally.record(label, [f"HTTP {outcome.status}: {outcome.body[:200]!r}"])
            continue
        tally.record(label, outcome.request.check(json.loads(outcome.body)["result"]))


@dataclass
class StatsDelta:
    """What the daemon's ``/stats`` says happened between two reads."""

    before: dict
    after: dict

    def counter(self, name: str) -> float:
        counts = [doc["metrics"]["counters"].get(name, 0) for doc in (self.before, self.after)]
        return counts[1] - counts[0]

    def histogram(self, name: str) -> tuple[float, float]:
        """(sum, count) observed in between."""
        snaps = [doc["metrics"]["histograms"].get(name, {}) for doc in (self.before, self.after)]
        return (
            snaps[1].get("sum", 0.0) - snaps[0].get("sum", 0.0),
            snaps[1].get("count", 0) - snaps[0].get("count", 0),
        )


def server_layers(delta: StatsDelta, outcomes: list[Outcome]) -> dict[str, float]:
    """The ``server.*`` per-layer metrics: queue wait and transport as
    shares of client latency, service time per job."""
    client_total = sum(o.seconds for o in outcomes)
    queue_sum, jobs = delta.histogram("server.queue_wait_seconds")
    handled_sum, _ = delta.histogram("server.request_seconds")
    batch_sum, batches = delta.histogram("server.batch_size")
    return {
        "server.queue_wait.share": queue_sum / client_total,
        "server.service.mean_ms": 1000.0 * (handled_sum - queue_sum) / jobs,
        "server.http_overhead.share": (client_total - handled_sum) / client_total,
        "server.batches": delta.counter("server.batches"),
        "server.batch_size.mean": batch_sum / batches if batches else 0.0,
        "server.errors": delta.counter("server.errors"),
        "server.deadline_exceeded": delta.counter("server.deadline_exceeded"),
    }


@dataclass
class Replica:
    """One replica of the stream, played on its own daemon."""

    outcomes: list[Outcome]
    makespan: float
    #: Daemon CPU seconds spent on the stream (lifetime minus an idle
    #: daemon's start and drain).
    cpu_s: float
    rss_mb: float
    delta: StatsDelta


def spawn(tag: str, traced: bool = False) -> Daemon:
    """A ready daemon on a fresh store; traced daemons leave their
    per-layer totals in ``layers.json`` beside the store."""
    store = scratch_dir(tag)
    daemon = Daemon(store, store / "layers.json" if traced else None)
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.kill()
        raise
    return daemon


def play(daemon: Daemon, streams: list[list[Request]], idle_cpu_s: float) -> Replica:
    """Drive one replica through a ready daemon, then stop it."""
    try:
        before = daemon.get("/stats")
        assert daemon.port is not None
        outcomes, makespan = drive(daemon.port, streams)
        after = daemon.get("/stats")
        cpu_s, rss_mb = daemon.stop()
    finally:
        daemon.kill()
    return Replica(
        outcomes, makespan, cpu_s - idle_cpu_s, rss_mb, StatsDelta(before, after)
    )


def measure(
    pool: Payloads, daemon: Daemon, seed: int, seconds: float,
    idle_cpu_s: float, tally: _checks.Tally,
) -> list[Replica]:
    """Untraced replicas, each on a fresh daemon (the first on the one
    set-up started), until the budget is spent."""
    rng = random.Random(seed)
    replicas: list[Replica] = []
    started = _measure.wall()
    last = 0.0
    while _measure.another_fits(len(replicas), MIN_REPLICAS, started, last, seconds):
        began = _measure.wall()
        order = replica(pool, rng)
        ready = daemon if not replicas else spawn(f"plain{len(replicas)}")
        replicas.append(play(ready, order, idle_cpu_s))
        check_outcomes(replicas[-1].outcomes, tally)
        last = _measure.wall() - began
    return replicas


def measure_traced(
    pool: Payloads, daemon: Daemon, seed: int, seconds: float,
    idle_cpu_s: float, tally: _checks.Tally,
) -> tuple[dict[str, float], list[Replica]]:
    """Pairs of an untraced and a traced replica in the same order, until
    the budget is spent (at least one pair).  Layers come from the
    traced daemons, ``server.*`` from the untraced daemons' ``/stats``."""
    rng = random.Random(seed)
    plain: list[Replica] = []
    layers: list[dict[str, float]] = []
    servers: list[dict[str, float]] = []
    overhead: list[float] = []
    coverage: list[float] = []
    started = _measure.wall()
    last = 0.0
    while _measure.another_fits(len(plain), 1, started, last, seconds):
        began = _measure.wall()
        order = replica(pool, rng)
        ready = daemon if not plain else spawn(f"plain{len(plain)}")
        plain.append(play(ready, order, idle_cpu_s))
        traced_daemon = spawn(f"traced{len(plain)}", traced=True)
        traced = play(traced_daemon, order, idle_cpu_s)
        for played in (plain[-1], traced):
            check_outcomes(played.outcomes, tally)
        raw = json.loads((traced_daemon.store_dir / "layers.json").read_text())
        layers.append(_layers.layer_metrics(raw))
        servers.append(server_layers(plain[-1].delta, plain[-1].outcomes))
        overhead.append(traced.cpu_s / plain[-1].cpu_s)
        coverage.append(raw["attributed_cpu_s"] / raw["traced_cpu_s"])
        last = _measure.wall() - began
    metrics = _layers.assemble(
        _layers.median_metrics(layers),
        _layers.median_metrics(servers),
        _measure.median(overhead),
        _measure.median(coverage),
    )
    return metrics, plain


def end_to_end(replicas: list[Replica], setup_s: float) -> dict[str, float]:
    """Latencies over all requests of all replicas (per distinct payload
    for the geomean and the slowest), CPU, makespan and memory of the
    median replica."""
    latencies = [o.seconds for r in replicas for o in r.outcomes]
    tail = _measure.supported_tail(len(latencies))
    if tail is None or tail < 97.5:
        raise ValueError(f"{len(latencies)} requests leave fewer than ten beyond p97.5")
    by_key: dict[str, list[float]] = {}
    for played in replicas:
        for outcome in played.outcomes:
            by_key.setdefault(outcome.request.key, []).append(outcome.seconds)
    medians = [_measure.median(values) for values in by_key.values()]
    makespan = _measure.median([r.makespan for r in replicas])
    return {
        "setup_s": setup_s,
        "total_cpu_s": _measure.median([r.cpu_s for r in replicas]),
        "geomean_query_ms": 1000.0 * _measure.geomean(medians),
        "max_query_s": max(medians),
        "wall_s": makespan,
        "throughput_rps": _measure.median(
            [len(r.outcomes) / r.makespan for r in replicas]
        ),
        "latency_p50_ms": 1000.0 * _measure.median(latencies),
        "latency_p97.5_ms": 1000.0 * _measure.percentile(latencies, 97.5),
        "peak_rss_mb": _measure.median([r.rss_mb for r in replicas]),
    }


def _state(key: str) -> str:
    """The cache state a payload meets: novel files cold, their repeats
    warm, the Fig. 12 files and solves cold the first time in a replica
    and warm after."""
    if key.endswith("/repeat"):
        return "warm"
    return "cold" if key.startswith("novel/") else "cold, then warm"


def rows(replicas: list[Replica], environment: dict[str, object]) -> list[dict]:
    """One row per distinct payload: client latency n, median and IQR
    over all replicas."""
    by_key: dict[str, list[float]] = {}
    for played in replicas:
        for outcome in played.outcomes:
            by_key.setdefault(outcome.request.key, []).append(outcome.seconds)
    return [
        {
            "query": key,
            "state": _state(key),
            "latency_s": _measure.summarize(latencies),
            **environment,
        }
        for key, latencies in by_key.items()
    ]


def scratch_dir(tag: str) -> pathlib.Path:
    """A fresh directory for one daemon's store, inside the checkout."""
    path = HERE / "out" / "tmp" / f"{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_scratch() -> None:
    """Delete every scratch directory this process made."""
    for path in (HERE / "out" / "tmp").glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
