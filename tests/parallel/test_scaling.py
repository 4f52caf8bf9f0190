"""Bridge-combination fan-out across workers: serial vs 2 vs 4.

The stage-5 walk of a wide CI-group (225 bridge combinations) is
chunked across a process pool (docs/PARALLELISM.md).  Every worker
count must yield the same solutions in the same order.  On a host with
at least 4 CPUs the pool must also pay for itself in wall-clock time:
perfbench runs serially, so this is the only check that it does.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.gci import GciLimits

from ..helpers import WIDE

ROUNDS = 3
WORKER_SWEEP = (0, 2, 4)


def _assignments(solutions) -> list[dict[str, str]]:
    return [
        {name: a.regex_str(name) for name in sorted(a.variables())}
        for a in solutions
    ]


def _measure(problem, workers: int):
    """Best-of-N wall clock and the solutions of the best round, each
    round under a collector as a traced solve runs."""
    best, solutions = float("inf"), None
    for _ in range(ROUNDS):
        with obs.collect():
            started = time.perf_counter()
            result = solve(problem, limits=GciLimits(workers=workers))
            elapsed = time.perf_counter() - started
        if elapsed < best:
            best, solutions = elapsed, result
    return best, solutions


def test_parallel_scaling_wide():
    problem = parse_problem(WIDE)
    solve(problem)  # warmup: imports, regex parsing caches, etc.

    seconds = {}
    reference = None
    for workers in WORKER_SWEEP:
        seconds[workers], solutions = _measure(problem, workers)
        if reference is None:
            reference = _assignments(solutions)
        else:
            # Canonical combination order: every worker count yields
            # the same solutions in the same order.
            assert _assignments(solutions) == reference, workers

    if (os.cpu_count() or 1) >= 4:
        # On real hardware the fan-out must pay for itself.
        assert seconds[4] <= seconds[0] / 1.5, seconds
