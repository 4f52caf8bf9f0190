"""Property tests: the language cache is semantically invisible.

Every memoized operation must return a machine (or verdict) language-
equal to the uncached computation, and equal structural keys must mean
equal languages — the claim every memo key rests on.
"""

from hypothesis import given, settings

from repro.automata import enumerate_strings, minimize_nfa, ops
from repro.automata.equivalence import counterexample, equivalent, is_subset
from repro.cache import CacheLimits, LangCache
from repro.constraints import parse_problem
from repro.solver import solve

from ..helpers import language
from .strategies import machines

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(machines(), machines())
def test_cached_intersect_matches_uncached(left, right):
    plain = language(ops.intersect(left, right))
    with LangCache().activate():
        first = ops.intersect(left, right)
        second = ops.intersect(left.copy(), right.copy())  # likely a hit
    assert language(first) == plain
    assert language(second) == plain


@SETTINGS
@given(machines(), machines())
def test_cached_is_subset_matches_uncached(left, right):
    plain = counterexample(left, right) is None
    with LangCache().activate():
        assert is_subset(left, right) == plain
        assert is_subset(left, right) == plain  # memoized verdict


@SETTINGS
@given(machines())
def test_cached_minimize_matches_uncached(machine):
    plain = language(minimize_nfa(machine))
    with LangCache().activate():
        assert language(minimize_nfa(machine)) == plain
        assert language(minimize_nfa(machine.copy())) == plain


@SETTINGS
@given(machines(), machines())
def test_equal_struct_keys_imply_equivalence(left, right):
    cache = LangCache()
    same_language = counterexample(left, right) is None and (
        counterexample(right, left) is None
    )
    with cache.activate():
        if cache.struct_key(left) == cache.struct_key(right):
            assert same_language
        assert cache.struct_key(left) == cache.struct_key(left.copy())
        assert equivalent(left, right) == same_language


FIG9 = """
var va, vb, vc;
va <= /o(pp)+/;
vb <= /p*(qq)+/;
vc <= /q*r/;
va . vb <= /op{5}q*/;
vb . vc <= /p*q{4}r/;
"""


def test_fig9_slice_combinations_cache_on_off():
    """The GCI slice/enumeration path (Fig. 9's mutually dependent
    concatenations) must produce the same solution set with the cache
    on and off."""
    problem = parse_problem(FIG9)

    def summary(solutions):
        return {
            tuple(
                frozenset(enumerate_strings(m, limit=8, max_length=10))
                for _, m in sorted(assignment.items())
            )
            for assignment in solutions
        }

    baseline = solve(problem)
    with LangCache(CacheLimits(enabled=False)).activate():
        disabled = solve(problem)
    cache = LangCache()
    with cache.activate():
        cached = solve(problem)

    assert summary(baseline) == summary(disabled) == summary(cached)
    assert len(cached) == 4
    assert cache.stats()["hit_total"] > 0
