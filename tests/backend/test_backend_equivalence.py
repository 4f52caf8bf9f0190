"""Reference ≡ bitset: the kernels must be observationally invisible.

The production kernels (repro.automata.bitset) promise the *same*
answers as the oracle kernels in tests/oracle.py — not just the same
languages, but the same SolutionSets in the same order, and (because
determinize/product are pinned structure-identical) the same serial
``visit_states`` and operation counters.  These tests pin that end to
end on the paper's fixtures, on randomized RMA systems, under
adversarially warmed caches, and across the multiprocess worker pool
(which always runs the production kernels).
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro import obs, parallel
from repro.automata import ops
from repro.automata.equivalence import equivalent
from repro.automata.nfa import Nfa
from repro.cache import LangCache
from repro.constraints import parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import solve
from repro.solver.gci import GciLimits

from ..helpers import AB
from ..oracle import KERNEL_SETS, use_kernels
from ..prop.strategies import machines

DATA = pathlib.Path(__file__).parent.parent / "data"

FIXTURES = [
    "motivating.dprle",
    "fig9.dprle",
    "nested.dprle",
    "disjunctive.dprle",
    "wide.dprle",
]


@pytest.fixture(autouse=True, scope="module")
def _dispatch_every_group():
    # A threshold of 1 sends even the tiny textbook groups to the pool.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)
        yield


def _limits(workers: int = 0, **kwargs) -> GciLimits:
    return GciLimits(workers=workers, **kwargs)


def _solve(fixture: str, kernels: str, workers: int = 0, **kwargs):
    problem = parse_problem((DATA / fixture).read_text())
    with LangCache().activate(), use_kernels(kernels):
        return solve(problem, limits=_limits(workers, **kwargs))


def assert_same_solutions(reference, candidate) -> None:
    assert len(candidate) == len(reference)
    for index, (a, b) in enumerate(zip(reference, candidate)):
        assert a.variables() == b.variables(), index
        for name in a.variables():
            assert equivalent(a[name], b[name]), (index, name)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_solutions_identical(fixture):
    reference = _solve(fixture, "reference")
    candidate = _solve(fixture, "bitset")
    assert_same_solutions(reference, candidate)


@pytest.mark.parametrize("fixture", ["motivating.dprle", "fig9.dprle", "wide.dprle"])
def test_serial_counters_identical(fixture):
    """determinize/product are structure-identical across kernel sets,
    so the serial cost model (visit_states totals, operation counts)
    must agree exactly — the bitset kernels batch their emissions, but
    the totals are pinned."""
    problem = parse_problem((DATA / fixture).read_text())
    counters = {}
    for kernels in KERNEL_SETS:
        with LangCache().activate(), use_kernels(kernels):
            with obs.collect() as collector:
                solve(problem, limits=_limits(0))
        counters[kernels] = collector.metrics.snapshot()["counters"]
    assert counters["reference"] == counters["bitset"]


@pytest.mark.parametrize("workers", [0, 4])
@pytest.mark.parametrize("fixture", ["fig9.dprle", "wide.dprle"])
def test_bitset_parallel_matches_reference_serial(fixture, workers):
    reference = _solve(fixture, "reference", workers=0)
    candidate = _solve(fixture, "bitset", workers=workers)
    assert_same_solutions(reference, candidate)


@pytest.mark.parametrize("kernels", KERNEL_SETS)
def test_adversarially_warmed_cache_identical(kernels):
    """A cache warmed under the *other* kernel set must not perturb
    answers: entries are keyed by the operands' structure, and whichever
    kernels filled an entry, its value denotes the same language."""
    reference = _solve("wide.dprle", "reference")
    other = KERNEL_SETS[1 - KERNEL_SETS.index(kernels)]

    problem = parse_problem((DATA / "wide.dprle").read_text())
    cache = LangCache()
    with cache.activate(), use_kernels(other):
        universal = Nfa.universal(AB)
        ops.intersect(universal, universal.copy())
        one = Nfa.literal("a", AB)
        cache.is_subset(ops.intersect(universal, one), universal)
        cache.is_subset(one, universal)
    with cache.activate(), use_kernels(kernels):
        warmed = solve(problem, limits=_limits(0))
    assert_same_solutions(reference, warmed)


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
    with LangCache().activate(), use_kernels("reference"):
        reference = solve(problem, limits=_limits(0, **kwargs))
    with LangCache().activate(), use_kernels("bitset"):
        candidate = solve(problem, limits=_limits(0, **kwargs))
    assert_same_solutions(reference, candidate)
