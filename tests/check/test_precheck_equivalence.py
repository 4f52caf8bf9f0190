"""Precheck ≡ no-precheck: the pruning must be solution-preserving.

Mirrors the serial/parallel equivalence suite: same fixtures, same
randomized RMA systems, same adversarial cache warming — with
``precheck=True`` in place of a worker pool, and combined with one
(workers 0 and 4 per the acceptance criteria).
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro import obs, parallel
from repro.automata import ops
from repro.automata.nfa import Nfa
from repro.cache import LangCache
from repro.constraints import parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import solve
from repro.solver.api import RegLangSolver
from repro.solver.gci import GciLimits

from ..helpers import AB
from ..parallel.test_serial_parallel_equivalence import assert_same_solutions
from ..prop.strategies import machines

DATA = pathlib.Path(__file__).parent.parent / "data"

FIXTURES = [
    "motivating.dprle",
    "fig9.dprle",
    "nested.dprle",
    "disjunctive.dprle",
    "wide.dprle",
    "unsat.dprle",
    "unsat_static.dprle",
    "warn_wide.dprle",
    "pushback.dprle",
]

WORKER_COUNTS = [0, 4]


@pytest.fixture(autouse=True, scope="module")
def _dispatch_every_group():
    # A threshold of 1 sends even the tiny textbook groups to the pool.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)
        yield


def _limits(precheck: bool, workers: int = 0, **kwargs) -> GciLimits:
    return GciLimits(precheck=precheck, workers=workers, **kwargs)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fixture_solutions_identical(fixture, workers):
    problem = parse_problem((DATA / fixture).read_text())
    reference = solve(problem, limits=_limits(False))
    candidate = solve(problem, limits=_limits(True, workers=workers))
    assert_same_solutions(reference, candidate)
    assert reference.satisfiable == candidate.satisfiable


@pytest.mark.parametrize("fixture", ["fig9.dprle", "unsat_static.dprle"])
def test_capped_and_unmaximized_identical(fixture):
    problem = parse_problem((DATA / fixture).read_text())
    for kwargs in ({"max_solutions": 1}, {"max_solutions": 2}):
        reference = solve(problem, limits=_limits(False, **kwargs))
        candidate = solve(problem, limits=_limits(True, **kwargs))
        assert_same_solutions(reference, candidate)


def test_queried_and_partial_solves_identical():
    problem = parse_problem((DATA / "fig9.dprle").read_text())
    names = [v.name for v in problem.variables()]
    some = names[:1]
    for kwargs in ({"query": some}, {"only": some}):
        reference = solve(problem, limits=_limits(False), **kwargs)
        candidate = solve(problem, limits=_limits(True), **kwargs)
        assert_same_solutions(reference, candidate)
        assert reference.satisfiable == candidate.satisfiable


def test_adversarially_warmed_cache_identical():
    """PR 2's adversarial pattern: a cache warmed with colliding
    machines must not perturb the precheck path either."""
    problem = parse_problem((DATA / "unsat_static.dprle").read_text())
    reference = solve(problem, limits=_limits(False))

    def warmed_cache() -> LangCache:
        cache = LangCache()
        with cache.activate():
            universal = Nfa.universal(AB)
            ops.intersect(universal, universal.copy())
            one = Nfa.literal("a", AB)
            cache.is_subset(ops.intersect(universal, one), universal)
            cache.is_subset(one, universal)
        return cache

    with warmed_cache().activate():
        warm_plain = solve(problem, limits=_limits(False))
    with warmed_cache().activate():
        warm_prechecked = solve(problem, limits=_limits(True))
    assert_same_solutions(reference, warm_plain)
    assert_same_solutions(reference, warm_prechecked)


@settings(max_examples=10, deadline=None)
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
    reference = solve(problem, limits=_limits(False, **kwargs))
    for workers in WORKER_COUNTS:
        candidate = solve(
            problem, limits=_limits(True, workers=workers, **kwargs)
        )
        assert_same_solutions(reference, candidate)


@settings(max_examples=6, deadline=None)
@given(machines(max_depth=2), machines(max_depth=2))
def test_random_basic_systems_identical(c1, c2):
    # Concat-free systems exercise the stage-1 basic-variable pruning.
    problem = Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(Var("x"), Const("c2", c2)),
        ],
        alphabet=AB,
    )
    reference = solve(problem, limits=_limits(False))
    candidate = solve(problem, limits=_limits(True))
    assert_same_solutions(reference, candidate)
    assert reference.satisfiable == candidate.satisfiable


def test_pruned_nodes_counter_on_unsat_static():
    """Acceptance pin: check.pruned_nodes > 0 on the new corpus entry."""
    problem = parse_problem((DATA / "unsat_static.dprle").read_text())
    for workers in WORKER_COUNTS:
        with obs.collect() as collector:
            result = solve(problem, limits=_limits(True, workers=workers))
        assert not result.satisfiable
        counters = collector.to_dict()["metrics"]["counters"]
        assert counters.get("check.pruned_nodes", 0) > 0, workers
        assert counters.get("check.proved_unsat", 0) == 1, workers


def test_solver_facade_precheck_flag():
    solver = RegLangSolver(alphabet=AB, precheck=True)
    v = solver.var("v")
    solver.require(v, solver.pattern("c1", "a+"))
    solver.require(v, solver.pattern("c2", "b+"))
    result = solver.solve(collect_stats=True)
    assert not result.satisfiable
    counters = result.stats.to_dict()["metrics"]["counters"]
    assert counters.get("check.pruned_nodes", 0) > 0


def test_facade_precheck_composes_with_explicit_limits():
    solver = RegLangSolver(alphabet=AB, precheck=True)
    v = solver.var("v")
    solver.require(v, solver.pattern("c1", "a+"))
    solver.require(v, solver.pattern("c2", "b+"))
    result = solver.solve(
        limits=GciLimits(max_solutions=2), collect_stats=True
    )
    assert not result.satisfiable
    counters = result.stats.to_dict()["metrics"]["counters"]
    assert counters.get("check.pruned_nodes", 0) > 0
