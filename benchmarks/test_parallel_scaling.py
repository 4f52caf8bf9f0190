"""Experiment parallel — bridge-combination fan-out across workers.

The stage-5 enumeration of a wide CI-group (225 bridge combinations)
is chunked across a process pool (docs/PARALLELISM.md); this sweep
records wall-clock and the enumeration counters for serial vs 2 vs 4
workers, plus the work-bounding counters for the Sec. 3.5 first-
solution case.  The speedup gate only applies on hosts with >= 4 CPUs
— correctness (identical answer sets in identical order) is asserted
everywhere.
"""

from __future__ import annotations

import os
import time

from repro import obs, parallel
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.gci import GciLimits

from benchmarks._util import WIDE

FIG9 = """
var va, vb, vc;
va <= /o(pp)+/;
vb <= /p*(qq)+/;
vc <= /q*r/;
va . vb <= /op{5}q*/;
vb . vc <= /p*q{4}r/;
"""

ROUNDS = 3
WORKER_SWEEP = (0, 2, 4)


def _assignments(solutions) -> list[dict[str, str]]:
    return [
        {name: a.regex_str(name) for name in sorted(a.variables())}
        for a in solutions
    ]


def _measure(problem, workers: int):
    """Best-of-N wall clock plus the counters of the best round."""
    best, counters, solutions = float("inf"), {}, None
    for _ in range(ROUNDS):
        with obs.collect() as collector:
            started = time.perf_counter()
            result = solve(problem, limits=GciLimits(workers=workers))
            elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            counters = collector.metrics.snapshot()["counters"]
            solutions = result
    return best, counters, solutions


def test_parallel_scaling_wide():
    problem = parse_problem(WIDE)
    solve(problem)  # warmup: imports, regex parsing caches, etc.

    rows = {}
    reference = None
    for workers in WORKER_SWEEP:
        elapsed, counters, solutions = _measure(problem, workers)
        if reference is None:
            reference = _assignments(solutions)
        else:
            # Canonical combination order: every worker count yields
            # the same solutions in the same order.
            assert _assignments(solutions) == reference, workers
        rows[str(workers)] = {
            "workers": workers,
            "wall_seconds": round(elapsed, 6),
            "solutions": len(solutions),
            "combinations_enumerated": counters.get(
                "gci.combinations_enumerated", 0
            ),
            "combinations_skipped": counters.get(
                "gci.combinations_skipped", 0
            ),
        }

    cpus = os.cpu_count() or 1
    if cpus >= 4:
        # On real hardware the fan-out must pay for itself.
        assert (
            rows["4"]["wall_seconds"] <= rows["0"]["wall_seconds"] / 1.5
        ), rows

    from benchmarks._util import write_json, write_table

    lines = [f"host CPUs: {cpus} (speedup gate requires >= 4)"]
    for key in sorted(rows, key=int):
        row = rows[key]
        lines.append(
            f"workers={row['workers']}: {row['wall_seconds'] * 1000:.1f} ms, "
            f"{row['combinations_enumerated']} combination(s) enumerated, "
            f"{row['combinations_skipped']} skipped, "
            f"{row['solutions']} solution(s)"
        )
    write_table(
        "parallel_wide",
        "Parallel sweep — wide CI-group, serial vs 2 vs 4 workers",
        lines,
    )
    write_json(
        "parallel_wide",
        "Parallel sweep — wide CI-group, serial vs 2 vs 4 workers",
        {"cpus": cpus, "rows": rows},
    )


def test_work_bounding_fig9_first_solution(monkeypatch):
    """Sec. 3.5 first-solution case: ``max_solutions=1`` must bound the
    enumeration work, not just the output.  Serial runs skip
    deterministically; across a pool the bound is best-effort (chunks
    already in flight complete — see docs/PARALLELISM.md), so the
    parallel leg asserts the accounting identity instead."""
    monkeypatch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)
    rows = {}
    for workers in (0, 2):
        with obs.collect() as collector:
            solutions = solve(
                parse_problem(FIG9),
                max_solutions=1,
                limits=GciLimits(workers=workers),
            )
        counters = collector.metrics.snapshot()["counters"]
        assert len(solutions) == 1
        if workers == 0:
            assert counters["gci.combinations_skipped"] > 0
        enumerated = counters["gci.combinations_enumerated"]
        skipped = counters.get("gci.combinations_skipped", 0)
        assert enumerated + skipped == counters["gci.combinations_total"]
        rows[str(workers)] = {
            "workers": workers,
            "combinations_total": counters["gci.combinations_total"],
            "combinations_enumerated": enumerated,
            "combinations_skipped": skipped,
        }

    from benchmarks._util import write_json

    write_json(
        "parallel_fig9",
        "Figs. 9/10 — work bounded by max_solutions=1",
        {"rows": rows},
    )
