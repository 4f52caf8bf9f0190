"""The enumeration planner must be observationally invisible.

``repro.solver.plan`` prunes provably-redundant bridge combinations
(signature-class collapse), masks non-viable ones (unary/binary
viability constraints), and reorders *work* — never *output*.  These
tests pin that: every plan mode produces the reference SolutionSet in
the reference order at workers 0 and 4, under adversarially warmed
caches, and repeated planned runs are bit-for-bit deterministic in
both solutions and the ``gci.combinations_*`` counter series.  The
memo-reuse tests cover the stage-5 slice/pair memos the planner's
viability mining warms (``gci.slice_memo_*``/``gci.pair_memo_*``).
"""

import functools
import pathlib

import pytest

from repro import obs, parallel
from repro.automata import ops
from repro.automata.equivalence import equivalent
from repro.automata.nfa import Nfa
from repro.cache import LangCache
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.api import RegLangSolver
from repro.solver.gci import GciLimits
from repro.solver.plan import PLAN_MODES, build_plan

from ..helpers import AB

DATA = pathlib.Path(__file__).parent.parent / "data"

#: Fixtures with a real combination space: wide (225, no signature
#: symmetry — equiv must be a sound no-op) and wider (3249, heavy
#: symmetry — equiv collapses 9/16 of the space), plus fig9's mutually
#: dependent concatenations and the nested tower.
FIXTURES = ["fig9.dprle", "nested.dprle", "wide.dprle", "wider.dprle"]

PLANNED_MODES = [m for m in PLAN_MODES if m != "off"]


@pytest.fixture(autouse=True, scope="module")
def _dispatch_every_group():
    # A threshold of 1 sends even the tiny textbook groups to the pool.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)
        yield


def _limits(workers: int, **kwargs) -> GciLimits:
    return GciLimits(workers=workers, **kwargs)


def _solve(fixture: str, workers: int = 0, max_solutions=None, **kwargs):
    problem = parse_problem((DATA / fixture).read_text())
    with LangCache().activate():
        return solve(
            problem, limits=_limits(workers, **kwargs), max_solutions=max_solutions
        )


def assert_same_solutions(reference, candidate) -> None:
    assert len(candidate) == len(reference)
    for index, (a, b) in enumerate(zip(reference, candidate)):
        assert a.variables() == b.variables(), index
        for name in a.variables():
            assert equivalent(a[name], b[name]), (index, name)


@functools.lru_cache(maxsize=None)
def _reference(fixture: str):
    return _solve(fixture, workers=0)


# -- plan ≡ off --------------------------------------------------------------


@pytest.mark.parametrize("workers", [0, 4])
@pytest.mark.parametrize("mode", PLANNED_MODES)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_planned_solutions_identical(fixture, mode, workers):
    candidate = _solve(fixture, workers=workers, plan=mode)
    assert_same_solutions(_reference(fixture), candidate)


@pytest.mark.parametrize("workers", [0, 4])
@pytest.mark.parametrize("mode", ["full", "beam"])
@pytest.mark.parametrize("fixture", ["wide.dprle", "wider.dprle"])
def test_planned_first_solution_identical(fixture, mode, workers):
    """max_solutions=1 is the case the planner optimizes; the solution
    must still be the reference's *first* solution, not just any one."""
    reference = _solve(fixture, workers=0, max_solutions=1)
    candidate = _solve(fixture, workers=workers, max_solutions=1, plan=mode)
    assert_same_solutions(reference, candidate)


@pytest.mark.parametrize("mode", PLANNED_MODES)
def test_adversarially_warmed_cache_identical(mode):
    """Signature-class collapse consults the active cache; a cache
    warmed with unrelated (and related) machines must not perturb the
    solution set — class ids shift, languages do not."""
    problem = parse_problem((DATA / "wider.dprle").read_text())
    cache = LangCache()
    with cache.activate():
        universal = Nfa.universal(AB)
        ops.intersect(universal, universal.copy())
        one = Nfa.literal("a", AB)
        cache.signature(ops.intersect(universal, one))
        cache.class_id(one)
        cache.class_id(Nfa.literal("b", AB))
    with cache.activate():
        warmed = solve(problem, limits=_limits(0, plan=mode))
    assert_same_solutions(_reference("wider.dprle"), warmed)


def test_solver_plan_kwarg_selects_planner():
    solver = RegLangSolver(plan="full")
    solver.add_dsl((DATA / "wide.dprle").read_text())
    result = solver.solve(limits=_limits(0), collect_stats=True)
    assert_same_solutions(_reference("wide.dprle"), result)
    counters = result.stats.metrics.snapshot()["counters"]
    assert counters["gci.combinations_pruned_plan"] > 0


def test_unknown_plan_mode_raises():
    problem = parse_problem((DATA / "wide.dprle").read_text())
    with pytest.raises(ValueError, match="plan"):
        solve(problem, limits=_limits(0, plan="bogus"))


# -- determinism and counter accounting --------------------------------------


def _counters(fixture: str, workers: int = 0, max_solutions=None, **kwargs):
    problem = parse_problem((DATA / fixture).read_text())
    with LangCache().activate(), obs.collect() as collector:
        result = solve(
            problem, limits=_limits(workers, **kwargs), max_solutions=max_solutions
        )
    return result, collector.metrics.snapshot()["counters"]


@pytest.mark.parametrize("mode", PLANNED_MODES)
@pytest.mark.parametrize("fixture", ["wide.dprle", "wider.dprle"])
def test_planned_runs_deterministic(fixture, mode):
    """Repeated planned runs: same SolutionSet, same gci.* counters."""
    first, counters_a = _counters(fixture, plan=mode)
    second, counters_b = _counters(fixture, plan=mode)
    assert_same_solutions(first, second)
    gci_a = {k: v for k, v in counters_a.items() if k.startswith("gci.")}
    gci_b = {k: v for k, v in counters_b.items() if k.startswith("gci.")}
    assert gci_a == gci_b
    assert gci_a  # the series is actually present


@pytest.mark.parametrize("max_solutions", [None, 1])
@pytest.mark.parametrize("mode", list(PLAN_MODES))
def test_counter_accounting_identity(mode, max_solutions):
    """total = factored + pruned_equiv + pruned_plan + enumerated + skipped
    in every mode, capped or not (docs/PLANNER.md's ledger)."""
    _, counters = _counters(
        "wider.dprle", plan=mode, max_solutions=max_solutions
    )
    total = counters["gci.combinations_total"]
    parts = sum(
        counters.get(f"gci.combinations_{part}", 0)
        for part in ("factored", "pruned_equiv", "pruned_plan", "enumerated", "skipped")
    )
    assert total == parts


def test_equiv_prunes_only_with_symmetry():
    """wide has no signature symmetry (classes are singletons); wider
    was built with four language-equal branches per bound."""
    _, wide = _counters("wide.dprle", plan="equiv")
    _, wider = _counters("wider.dprle", plan="equiv")
    assert wide.get("gci.combinations_pruned_equiv", 0) == 0
    assert wider["gci.combinations_pruned_equiv"] > 0
    # The collapse is per-tag 57 -> 15, so the pruned share is 1 - (15/57)^2.
    assert wider["gci.combinations_pruned_equiv"] > wider["gci.combinations_total"] / 2


@pytest.mark.parametrize("fixture", ["wide.dprle", "wider.dprle"])
def test_plan_full_first_solution_enumeration_drop(fixture):
    """The acceptance criterion: with max_solutions=1, plan=full must
    enumerate >= 5x fewer combinations than plan=off."""
    _, off = _counters(fixture, plan="off", max_solutions=1)
    _, full = _counters(fixture, plan="full", max_solutions=1)
    assert off["gci.combinations_enumerated"] >= 5 * full["gci.combinations_enumerated"]


# -- memo reuse --------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["wide.dprle", "wider.dprle"])
def test_slice_memo_hit_rate(fixture):
    """Stage-5 slices repeat massively across combinations: every
    combination re-reads each occurrence's slice for its boundary
    choice, but distinct (occurrence, boundary) keys are few."""
    _, counters = _counters(fixture)
    hits = counters["gci.slice_memo_hits"]
    misses = counters["gci.slice_memo_misses"]
    assert hits / (hits + misses) > 0.9


def test_pair_memo_hit_rate_across_planner_stages():
    """The planner's viability mining computes every pairwise share
    intersection up front; enumeration then re-requests them, so with
    planning the pair memo must serve repeat lookups."""
    _, off = _counters("wide.dprle", plan="off")
    _, full = _counters("wide.dprle", plan="full")
    assert off["gci.pair_memo_hits"] > 0
    assert full["gci.pair_memo_hits"] > 0
    # Planning must not *recompute* pairs: distinct pair keys are the
    # same work either way, so misses never exceed the unplanned run's.
    assert full["gci.pair_memo_misses"] <= off["gci.pair_memo_misses"]


def test_memo_reuse_across_groups_in_one_solve():
    """fig9 has two CI-groups solved in one pass; memo counters
    accumulate across both without resetting mid-solve."""
    problem = parse_problem((DATA / "fig9.dprle").read_text())
    with LangCache().activate(), obs.collect() as collector:
        result = solve(problem, limits=_limits(0))
    counters = collector.metrics.snapshot()["counters"]
    assert result.satisfiable
    assert counters["gci.slice_memo_hits"] > counters["gci.slice_memo_misses"]


# -- the plan object itself --------------------------------------------------


def test_build_plan_off_returns_none():
    problem = parse_problem((DATA / "wide.dprle").read_text())
    from repro.constraints.depgraph import build_graph
    from repro.solver.gci import _prepare_group

    graph, _ = build_graph(problem)
    group = graph.ci_groups()[0]
    with LangCache().activate():
        prepared = _prepare_group(graph, group, _limits(0, plan="off"))
        assert prepared.plan is None
        assert build_plan(prepared, _limits(0, plan="off")) is None


def test_plan_survivor_windows_sum_to_survivors():
    problem = parse_problem((DATA / "wide.dprle").read_text())
    from repro.constraints.depgraph import build_graph
    from repro.solver.gci import _prepare_group

    graph, _ = build_graph(problem)
    group = graph.ci_groups()[0]
    with LangCache().activate():
        prepared = _prepare_group(graph, group, _limits(0, plan="full"))
    plan = prepared.plan
    assert plan is not None and plan.mask is not None
    space = prepared.index_space
    step = 13
    total = sum(
        plan.count_survivors(start, min(start + step, space))
        for start in range(0, space, step)
    )
    assert total == plan.survivors
    listed = [
        i
        for start in range(0, space, step)
        for i in plan.iter_survivors(start, min(start + step, space))
    ]
    assert listed == sorted(listed)
    assert len(listed) == plan.survivors
