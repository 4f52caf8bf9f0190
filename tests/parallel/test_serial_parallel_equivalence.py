"""Serial ≡ parallel: the fan-out must be observationally invisible.

The multiprocess enumeration (repro.parallel) re-assembles worker
results in canonical combination-index order, so for every worker
count the solver must produce the *same* SolutionSet — same number of
assignments, same order, same language per variable.  These tests pin
that on the paper's examples, on randomized RMA systems, and under
adversarially warmed caches (worker caches are fresh, so cache-history
effects on machine *structure* must never leak into languages or
ordering).
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro import obs, parallel
from repro.automata import ops
from repro.automata.equivalence import equivalent
from repro.automata.nfa import Nfa
from repro.cache import LangCache
from repro.constraints import build_graph, parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import solve, solve_group
from repro.solver.gci import GciLimits

from ..helpers import AB
from ..prop.strategies import machines

DATA = pathlib.Path(__file__).parent.parent / "data"

#: Fig. 4 (motivating), Fig. 9 (mutually dependent concatenations),
#: plus the nested/disjunctive fixtures and the wide 225-combination
#: system that actually exercises multi-chunk dispatch.
FIXTURES = [
    "motivating.dprle",
    "fig9.dprle",
    "nested.dprle",
    "disjunctive.dprle",
    "wide.dprle",
]

WORKER_COUNTS = [0, 1, 4]


@pytest.fixture(autouse=True, scope="module")
def _dispatch_every_group():
    # A threshold of 1 forces dispatch even for the tiny textbook
    # groups, so every fixture crosses the process boundary.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)
        yield


def _limits(workers: int, **kwargs) -> GciLimits:
    return GciLimits(workers=workers, **kwargs)


def assert_same_solutions(reference, candidate) -> None:
    assert len(candidate) == len(reference)
    for index, (a, b) in enumerate(zip(reference, candidate)):
        assert a.variables() == b.variables(), index
        for name in a.variables():
            assert equivalent(a[name], b[name]), (index, name)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fixture_solutions_identical(fixture, workers):
    problem = parse_problem((DATA / fixture).read_text())
    reference = solve(problem, limits=_limits(0))
    candidate = solve(problem, limits=_limits(workers))
    assert_same_solutions(reference, candidate)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fig9_capped_identical(workers):
    problem = parse_problem((DATA / "fig9.dprle").read_text())
    for kwargs in ({"max_solutions": 1}, {"max_solutions": 2}):
        reference = solve(problem, limits=_limits(0, **kwargs))
        candidate = solve(problem, limits=_limits(workers, **kwargs))
        assert_same_solutions(reference, candidate)


@pytest.mark.parametrize("workers", [1, 4])
def test_adversarially_warmed_cache_identical(workers):
    """A parent cache warmed with unrelated-but-colliding machines must
    not perturb parallel results: workers use their own fresh caches,
    the parent keys candidates on structural digests either way."""
    problem = parse_problem((DATA / "wide.dprle").read_text())
    reference = solve(problem, limits=_limits(0))

    def warmed_cache() -> LangCache:
        cache = LangCache()
        with cache.activate():
            # Memoize verdicts on machines the solve will also build,
            # from a different construction history.
            universal = Nfa.universal(AB)
            ops.intersect(universal, universal.copy())
            one = Nfa.literal("a", AB)
            cache.is_subset(ops.intersect(universal, one), universal)
            cache.is_subset(one, universal)
        return cache

    with warmed_cache().activate():
        warm_serial = solve(problem, limits=_limits(0))
    with warmed_cache().activate():
        warm_parallel = solve(problem, limits=_limits(workers))
    assert_same_solutions(reference, warm_serial)
    assert_same_solutions(reference, warm_parallel)


#: The Sec. 3.1.1 system twice, on disjoint variables: two CI-groups
#: of two solutions each, so the worklist reaches the second group
#: from two work items.
TWO_GROUPS = """
var v1, v2, w1, w2;
v1 <= /x(yy)+/;
v2 <= /(yy)*z/;
v1 . v2 <= /xyyz|xyyyyz/;
w1 <= /x(yy)+/;
w2 <= /(yy)*z/;
w1 . w2 <= /xyyz|xyyyyz/;
"""


def test_each_group_enumerated_once():
    problem = parse_problem(TWO_GROUPS)
    graph, _ = build_graph(problem)
    groups = graph.ci_groups()
    assert len(groups) == 2
    per_group = 0
    for group in groups:
        with obs.collect() as collector:
            solve_group(graph, group)
        per_group += collector.metrics.snapshot()["counters"][
            "gci.combinations_total"
        ]
    results, totals = {}, {}
    for workers in (0, 2):
        with obs.collect() as collector:
            results[workers] = solve(problem, limits=_limits(workers))
        totals[workers] = collector.metrics.snapshot()["counters"][
            "gci.combinations_total"
        ]
    assert totals[0] == totals[2] == per_group
    assert len(results[0]) == 4
    assert_same_solutions(results[0], results[2])


@settings(max_examples=8, deadline=None)
@given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
def test_random_rma_systems_identical(c1, c2, c3):
    problem = Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(Var("y"), Const("c2", c2)),
            Subset(Var("x").concat(Var("y")), Const("c3", c3)),
        ],
        alphabet=AB,
    )
    kwargs = {"max_combinations": 10_000}
    reference = solve(problem, limits=_limits(0, **kwargs))
    candidate = solve(problem, limits=_limits(4, **kwargs))
    assert_same_solutions(reference, candidate)


def test_dprle_workers_env_resolves(monkeypatch):
    monkeypatch.delenv("DPRLE_WORKERS", raising=False)
    assert parallel.resolve_workers(None) == 0
    assert parallel.resolve_workers(3) == 3
    assert parallel.resolve_workers(0) == 0
    monkeypatch.setenv("DPRLE_WORKERS", "4")
    assert parallel.resolve_workers(None) == 4
    assert parallel.resolve_workers(2) == 2  # explicit beats env
    assert parallel.resolve_workers(0) == 0  # explicit serial beats env
    monkeypatch.setenv("DPRLE_WORKERS", "not-a-number")
    assert parallel.resolve_workers(None) == 0


def test_env_var_end_to_end(monkeypatch):
    monkeypatch.setenv("DPRLE_WORKERS", "2")
    problem = parse_problem((DATA / "fig9.dprle").read_text())
    reference = solve(problem, limits=_limits(0))
    candidate = solve(problem, limits=GciLimits())
    assert_same_solutions(reference, candidate)
