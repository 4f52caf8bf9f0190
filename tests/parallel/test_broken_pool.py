"""A pool that lost a worker is replaced, not reused.

``ProcessPoolExecutor`` marks itself broken for good once one of its
processes dies.  The fan-out drops such a pool when it sees
``BrokenProcessPool``, so at most the solve that meets the broken pool
fails and the next one runs on a fresh pool.
"""

import os
import pathlib
import signal
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

from repro import parallel
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.gci import GciLimits

from .test_serial_parallel_equivalence import assert_same_solutions

DATA = pathlib.Path(__file__).parent.parent / "data"


def test_killed_worker_does_not_break_later_solves():
    problem = parse_problem((DATA / "wide.dprle").read_text())
    serial = solve(problem, limits=GciLimits(workers=0))
    parallel.shutdown()
    try:
        assert_same_solutions(serial, solve(problem, limits=GciLimits(workers=2)))
        victim = next(iter(parallel._pools[2]._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        assert wait([victim.sentinel], timeout=30)
        try:
            solve(problem, limits=GciLimits(workers=2))
        except BrokenProcessPool:
            pass
        assert_same_solutions(serial, solve(problem, limits=GciLimits(workers=2)))
    finally:
        parallel.shutdown()
