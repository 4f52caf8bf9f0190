"""The in-process workloads: Fig. 12 analyses and ``.dprle`` enumeration.

Each workload is a list of queries.  A pass runs every query once, in an
order drawn from the seed; a run repeats passes until ``--seconds`` is
spent (at least three), and reports per-query medians.  Every answer is
checked after its pass, outside the timed region.

Settings are the ones a user gets by default: ``analyze_source`` at
library defaults (no language cache) for the Fig. 12 files, and what
``dprle solve FILE`` does for the ``.dprle`` files -- parse, then solve
for all solutions under a fresh ``LangCache``, so every query starts
cold.  ``DPRLE_WORKERS`` is cleared by the runner, so solves are serial.
"""

from __future__ import annotations

import functools
import pathlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import _checks
import _layers
import _measure

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Passes every run makes, however short ``--seconds`` is: with three,
#: the median survives one pass caught in a busy spell of the host.
MIN_PASSES = 3


@dataclass
class Query:
    """One timed call, how to turn its result into an answer document,
    and how to check that document."""

    name: str
    run: Callable[[], Any]
    answer: Callable[[Any], dict]
    check: Callable[[dict], list[str]]
    state: str


def report_doc(report: Any) -> dict:
    """An analysis result in the daemon's ``/analyze`` shape."""
    return {
        "num_blocks": report.num_blocks,
        "vulnerable": report.vulnerable,
        "findings": [
            {
                "vulnerable": finding.vulnerable,
                "num_constraints": finding.num_constraints,
                "exploit_inputs": dict(finding.exploit_inputs),
            }
            for finding in report.findings
        ],
    }


def solutions_doc(solutions: Any) -> dict:
    """A solve result in the daemon's ``/solve`` shape (witnesses only)."""
    assignments = [
        {
            name: {"witness": assignment.witness(name) or ""}
            for name, _machine in assignment.items()
        }
        for assignment in solutions.nonempty()
    ]
    return {
        "satisfiable": solutions.satisfiable,
        "count": len(assignments),
        "assignments": assignments,
    }


def fig12_sources(heavy: bool) -> list[tuple[str, str]]:
    """``(app/name, PHP source)`` of the Fig. 12 files, at scale 1.0:
    the ``secure`` outlier alone, or the other sixteen."""
    from repro.analysis import VULN_SPECS, make_vulnerable_source

    return [
        (f"{spec.app}/{spec.name}", make_vulnerable_source(spec, 1.0))
        for spec in VULN_SPECS
        if spec.heavy == heavy
    ]


def fig12_queries(heavy: bool) -> list[Query]:
    from repro.analysis import analyze_source

    expected = _checks.load("fig12.json")
    queries = []
    for key, source in fig12_sources(heavy):
        queries.append(
            Query(
                name=key,
                run=functools.partial(analyze_source, source, f"{key}.php"),
                answer=report_doc,
                check=functools.partial(_checks.check_fig12, key, expected, source),
                state="uncached",
            )
        )
    return queries


def _solve_cold(text: str) -> Any:
    """``dprle solve FILE`` without printing: parse, then solve for all
    solutions under a fresh language cache."""
    from repro.cache import CacheLimits, LangCache
    from repro.constraints import dsl
    from repro.solver.worklist import solve

    problem = dsl.parse_problem(text)
    with LangCache(CacheLimits()).activate():
        return solve(problem)


def dprle_queries() -> list[Query]:
    expected = _checks.load("dprle.json")["files"]
    data = ROOT / "tests" / "data"
    return [
        Query(
            name=name,
            run=functools.partial(_solve_cold, (data / name).read_text()),
            answer=solutions_doc,
            check=functools.partial(_checks.check_solutions, entry),
            state="cold",
        )
        for name, entry in expected.items()
    ]


def warm_up(heavy: Optional[bool]) -> None:
    """Run one small query of the workload's kind, so lazy imports and
    first-call set-up land in set-up time, not in the first pass."""
    if heavy is None:
        _solve_cold((ROOT / "tests" / "data" / "motivating.dprle").read_text())
        return
    from repro.analysis import VULN_SPECS, analyze_source, make_vulnerable_source

    spec = next(s for s in VULN_SPECS if s.heavy == heavy)
    analyze_source(make_vulnerable_source(spec, 0.08))


# -- measuring -------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float


def _run_pass(
    queries: list[Query],
    rng: random.Random,
    times: dict[str, _measure.QueryTimes],
    tally: _checks.Tally,
    raw: Optional[dict[str, float]] = None,
) -> PassResult:
    """One pass in seeded order; traced when ``raw`` is given."""
    order = list(queries)
    rng.shuffle(order)
    results = []
    cpu_total = 0.0
    with _measure.Stopwatch() as whole:
        for query in order:
            try:
                if raw is None:
                    with _measure.Stopwatch() as watch:
                        result = query.run()
                    times[query.name].samples.append(watch.sample)
                    cpu_total += watch.sample.cpu_s
                else:
                    with _layers.traced_query(raw):
                        result = query.run()
            except Exception as error:  # a failed query is counted, not fatal
                results.append((query, None, f"{type(error).__name__}: {error}"))
            else:
                results.append((query, result, None))
    for query, result, error in results:
        if error is not None:
            tally.record(query.name, [error])
        else:
            tally.record(query.name, query.check(query.answer(result)))
    return PassResult(whole.sample.wall_s, cpu_total)


def measure(
    queries: list[Query], seed: int, seconds: float, tally: _checks.Tally
) -> tuple[dict[str, _measure.QueryTimes], list[PassResult]]:
    """Untraced passes until the budget is spent."""
    rng = random.Random(seed)
    times = {q.name: _measure.QueryTimes(q.name, q.state) for q in queries}
    passes: list[PassResult] = []
    started = _measure.wall()
    while _measure.another_fits(
        len(passes), MIN_PASSES, started, passes[-1].wall_s if passes else 0.0,
        seconds,
    ):
        passes.append(_run_pass(queries, rng, times, tally))
    return times, passes


def measure_traced(
    queries: list[Query], seed: int, seconds: float, tally: _checks.Tally
) -> tuple[dict[str, float], dict[str, _measure.QueryTimes]]:
    """Alternate untraced and traced passes until the budget is spent
    (at least one pair); per-layer values are medians over the traced
    passes, and the untraced ones give the trace overhead."""
    rng = random.Random(seed)
    times = {q.name: _measure.QueryTimes(q.name, q.state) for q in queries}
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    coverage: list[float] = []
    started = _measure.wall()
    last = 0.0
    while _measure.another_fits(len(traced), 1, started, last, seconds):
        pair_started = _measure.wall()
        plain = _run_pass(queries, rng, times, tally)
        raw = _layers.empty_raw()
        with _layers.instrumented():
            _run_pass(queries, rng, times, tally, raw)
        untraced.append(plain.cpu_s)
        traced.append(raw["traced_cpu_s"])
        coverage.append(raw["attributed_cpu_s"] / raw["traced_cpu_s"])
        layers.append(_layers.layer_metrics(raw))
        last = _measure.wall() - pair_started
    walls = [s.wall_s for t in times.values() for s in t.samples]
    metrics = _layers.assemble(
        _layers.median_metrics(layers),
        no_server(1000.0 * sum(walls) / len(walls)),
        _measure.median(traced) / _measure.median(untraced),
        _measure.median(coverage),
    )
    return metrics, times


def no_server(service_ms: float) -> dict[str, float]:
    """The ``server.*`` family for a workload without a daemon: nothing
    queues, nothing crosses HTTP, and the service time is the query's."""
    return {
        "server.queue_wait.share": 0.0,
        "server.service.mean_ms": service_ms,
        "server.http_overhead.share": 0.0,
        "server.batches": 0.0,
        "server.batch_size.mean": 0.0,
        "server.errors": 0.0,
        "server.deadline_exceeded": 0.0,
    }


def end_to_end(
    times: dict[str, _measure.QueryTimes],
    passes: list[PassResult],
    setup_s: float,
) -> dict[str, float]:
    """The end-to-end metrics of an in-process workload: CPU from each
    query's median, latency percentiles over the queries' median wall
    times, the median pass for wall time and throughput.  A query that
    failed every time has no samples; the run reports it as failed."""
    timed = [t for t in times.values() if t.samples]
    cpu_medians = [_measure.median([s.cpu_s for s in t.samples]) for t in timed]
    latencies = [_measure.median([s.wall_s for s in t.samples]) for t in timed]
    wall_s = _measure.median([p.wall_s for p in passes])
    return {
        "setup_s": setup_s,
        "total_cpu_s": sum(cpu_medians),
        "geomean_query_ms": 1000.0 * _measure.geomean(cpu_medians),
        "max_query_s": max(cpu_medians),
        "wall_s": wall_s,
        "throughput_rps": len(timed) / wall_s,
        "latency_p50_ms": 1000.0 * _measure.median(latencies),
        "latency_p97.5_ms": 1000.0 * _measure.percentile(latencies, 97.5),
        "peak_rss_mb": _measure.peak_rss_mb(),
    }
