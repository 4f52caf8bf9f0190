# dprle-lint: disable-file=L040 -- this module is the benchmark's only clock; keeping every raw read here is what gives the runner a single timing method
"""The benchmark's clock and statistics.

Every raw clock read of the runner happens here, so the whole benchmark
has one timing method: process CPU time (``time.process_time``) for
work, ``time.perf_counter`` for wall time and latency, and per-thread
CPU (``time.thread_time``) for the spans the traced pass adds around
front-end calls -- the same clock ``repro.obs`` uses for its own spans,
so the two kinds of span subtract cleanly.  Summaries are medians with
their quartiles and sample counts, never best-of-N.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def wall() -> float:
    """Monotonic wall-clock seconds."""
    return time.perf_counter()


def cpu() -> float:
    """CPU seconds used by this process, all threads."""
    return time.process_time()


def thread_cpu() -> float:
    """CPU seconds used by the calling thread (the clock obs spans use)."""
    return time.thread_time()


@dataclass
class Sample:
    """One timed call: CPU and wall seconds."""

    cpu_s: float
    wall_s: float


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then read ``sw.sample``."""

    __slots__ = ("_cpu", "_wall", "sample")

    def __enter__(self) -> "Stopwatch":
        self._wall = wall()
        self._cpu = cpu()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.sample = Sample(cpu() - self._cpu, wall() - self._wall)


def another_fits(
    done: int, minimum: int, started: float, last: float, seconds: float
) -> bool:
    """Whether a run that began at ``started`` makes another repetition:
    always while fewer than ``minimum`` are done, then only if one more
    as long as the ``last`` still ends within ``seconds``."""
    if done < minimum:
        return True
    return wall() - started + last <= seconds


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values]
    return math.exp(sum(logs) / len(logs))


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0-100), linear interpolation between
    closest ranks (the "exclusive" method ``statistics.quantiles``
    uses is not defined at the extremes, so this is the inclusive one)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def supported_tail(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest percentile with at least ``min_beyond`` of ``n``
    samples beyond it, or None when ``n`` is too small for any."""
    if n <= min_beyond:
        return None
    return 100.0 * (1.0 - min_beyond / n)


def summarize(values: Sequence[float]) -> dict[str, float]:
    """``n``, median, quartiles and IQR of one series."""
    q1, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


@dataclass
class QueryTimes:
    """All timed executions of one query across a run."""

    name: str
    state: str
    samples: list[Sample] = field(default_factory=list)

    def row(self, environment: dict[str, object]) -> dict[str, object]:
        return {
            "query": self.name,
            "state": self.state,
            "cpu_s": summarize([s.cpu_s for s in self.samples]),
            "wall_s": summarize([s.wall_s for s in self.samples]),
            **environment,
        }


def environment(backend: str) -> dict[str, object]:
    """The host facts recorded with every row."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reap(pid: int, timeout: float) -> tuple[int, float, float]:
    """Wait for child ``pid``, killing it after ``timeout`` seconds;
    return its exit code, its total CPU seconds and its peak RSS in
    MiB, as the kernel's rusage records them."""
    deadline = wall() + timeout
    while True:
        reaped, status, usage = os.wait4(pid, os.WNOHANG)
        if reaped:
            break
        if wall() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            break
        time.sleep(0.01)
    code = os.waitstatus_to_exitcode(status)
    return code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
