"""Unit tests for the structure-keyed language cache (docs/CACHING.md)."""

import pytest

from repro import obs
from repro.automata import CharSet, Nfa, ops
from repro.automata.dfa import determinize, minimize_nfa
from repro.automata.nfa import BridgeTag
from repro.automata.equivalence import equivalent, is_subset
from repro.cache import CacheLimits, LangCache, active_cache
from repro.constraints import build_graph
from repro.constraints.terms import ConcatTerm, Const, Problem, Subset, Var

from ..helpers import AB, ABC, language, machine, raw_walk


@pytest.fixture
def cache():
    instance = LangCache(CacheLimits())
    with instance.activate():
        yield instance


class TestActivation:
    def test_no_cache_by_default(self):
        assert active_cache() is None

    def test_activate_installs_and_removes(self):
        instance = LangCache()
        with instance.activate():
            assert active_cache() is instance
        assert active_cache() is None

    def test_disabled_cache_never_installs(self):
        with LangCache(CacheLimits(enabled=False)).activate():
            assert active_cache() is None

    def test_caches_do_not_stack(self):
        outer, inner = LangCache(), LangCache()
        with outer.activate():
            with inner.activate():
                assert active_cache() is outer
            assert active_cache() is outer


class TestStructuralKeys:
    def test_struct_key_embeds_alphabet(self):
        # Same structure over different universes must never collide.
        cache = LangCache()
        assert cache.struct_key(Nfa.literal("a", AB)) != cache.struct_key(
            Nfa.literal("a", ABC)
        )

    def test_struct_key_is_tag_blind(self, cache):
        tagged = ops.concat(machine("a", ABC), machine("b", ABC), BridgeTag("t"))
        other = ops.concat(machine("a", ABC), machine("b", ABC), BridgeTag("u"))
        assert cache.struct_key(tagged) == cache.struct_key(other)

    def test_stale_fingerprint_recomputed_after_mutation(self, cache):
        a = machine("a", ABC)
        key_before = cache.struct_key(a)
        state = a.add_state()
        a.add_transition(min(a.finals), a.alphabet.universe, state)
        a.finals = a.finals | {state}
        assert cache.struct_key(a) != key_before


class TestMemoizedOperations:
    def test_minimize_returns_defensive_copy(self, cache):
        a = machine("ab", ABC)
        first = minimize_nfa(a)
        first.finals = set()  # vandalize the returned machine
        second = minimize_nfa(machine("ab", ABC))
        assert language(second) == {"ab"}

    def test_determinize_returns_defensive_copy(self, cache):
        # Dfa is mutable; sharing the stored instance would let any
        # caller silently poison entries shared across language-equal
        # machines (REVIEW.md).
        a = machine("ab", ABC)
        first = determinize(a)
        first.finals.clear()  # vandalize the returned machine
        assert determinize(a).accepts("ab")
        b = machine("ab|ab", ABC)
        determinize(b).transitions.clear()  # vandalize the shared entry
        assert determinize(b).accepts("ab")

    def test_intersect_key_is_commutative(self, cache):
        a, b = machine("a*b", ABC), machine("(a|b)*", ABC)
        first = ops.intersect(a, b)
        second = ops.intersect(b, a)
        assert cache.hits.get("intersect", 0) >= 1
        assert language(first) == language(second)

    def test_intersect_rejects_alphabet_mismatch(self, cache):
        with pytest.raises(ValueError):
            ops.intersect(Nfa.literal("a", AB), Nfa.literal("a", ABC))

    def test_is_subset_caches_both_verdicts(self, cache):
        a, b = machine("ab", ABC), machine("a(b|c)", ABC)
        for _ in range(2):
            assert is_subset(a, b)
            assert not is_subset(b, a)
        assert cache.hits.get("is_subset", 0) >= 2

    def test_is_subset_never_forces_signatures(self, cache):
        # The cache must run the lazy on-the-fly check: forcing a
        # determinize+minimize here would make blowup-prone inclusions
        # intractable.
        a, b = machine("ab", ABC), machine("a(b|c)", ABC)
        with obs.collect() as collector:
            assert is_subset(a, b)
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("op.determinize", 0) == 0
        assert counters.get("op.inclusion_check", 0) == 1

    def test_equivalent_never_forces_signatures(self, cache):
        a, b = machine("a|aa", ABC), machine("a(a?)", ABC)
        with obs.collect() as collector:
            assert equivalent(a, b)
            assert equivalent(a, b)  # memoized verdict
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("op.determinize", 0) == 0
        assert cache.hits.get("is_subset", 0) >= 2  # both inclusions

    def test_equal_struct_keys_short_circuit_subset(self, cache):
        a = machine("a|aa", ABC)
        with obs.collect() as collector:
            assert is_subset(a, a.copy())
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("op.inclusion_check", 0) == 0
        assert cache.misses == {}

    def test_equivalent_is_signature_comparison(self, cache):
        assert equivalent(machine("(ab)*", ABC), machine("(ab)*|", ABC))
        assert not equivalent(machine("(ab)*", ABC), machine("(ab)+", ABC))

    def test_eliminate_epsilon_is_struct_keyed(self, cache):
        a = ops.concat(machine("a", ABC), machine("b", ABC))
        first = ops.eliminate_epsilon(a)
        second = ops.eliminate_epsilon(a.copy())  # same structure
        assert cache.hits.get("eliminate_epsilon", 0) >= 1
        assert language(first) == language(second) == {"ab"}


class TestStructureSensitivePaths:
    """Regression for the REVIEW.md high-severity finding: GCI stage-1
    leaf machines feed ``concat`` and the stage-4 bridge-image scan, so
    their start/final *structure* — |finals(left)| × |starts(right)|
    bridge edges per concatenation — must never come from a cache
    hit.  A language-equal substitute with merged finals would merge
    distinct crossings and drop disjuncts depending on cache history."""

    @staticmethod
    def _one_final() -> Nfa:
        # L = {a, ab} with a single final: 0-a→1(✓), 0-a→2, 2-b→1.
        m = Nfa(AB)
        s0, s1, s2 = m.add_state(), m.add_state(), m.add_state()
        m.add_transition(s0, CharSet.of("a"), s1)
        m.add_transition(s0, CharSet.of("a"), s2)
        m.add_transition(s2, CharSet.of("b"), s1)
        m.starts = {s0}
        m.finals = {s1}
        return m

    @staticmethod
    def _two_finals() -> Nfa:
        # The same language with two finals: 0-a→1(✓), 1-b→2(✓).
        m = Nfa(AB)
        s0, s1, s2 = m.add_state(), m.add_state(), m.add_state()
        m.add_transition(s0, CharSet.of("a"), s1)
        m.add_transition(s1, CharSet.of("b"), s2)
        m.starts = {s0}
        m.finals = {s1, s2}
        return m

    @staticmethod
    def _solve(const_machine: Nfa):
        # v1 ⊆ C, v1·v2 ⊆ Σ*: one disjunct per bridge crossing, i.e.
        # one per final of v1's stage-1 machine.  The raw walk keeps the
        # per-crossing slices observable (Fig. 3 as written, before
        # maximization merges them).
        v1, v2 = Var("v1"), Var("v2")
        constraints = [
            Subset(v1, Const("c", const_machine)),
            Subset(ConcatTerm((v1, v2)), Const("top", Nfa.universal(AB))),
        ]
        graph, _ = build_graph(Problem(constraints, alphabet=AB))
        (group,) = graph.ci_groups()
        return [solution for _, solution in raw_walk(graph, group)[1]]

    @staticmethod
    def _langs(solutions):
        return {
            frozenset(
                (name, frozenset(language(m, max_length=3)))
                for name, m in assignment.items()
            )
            for assignment in solutions
        }

    def test_stage1_leaf_structure_ignores_cache_history(self):
        baseline = self._solve(self._two_finals())
        assert len(baseline) == 2  # crossings after "a" and after "ab"
        cache = LangCache()
        with cache.activate():
            # Adversarial warming: intersect Σ* with a language-equal
            # machine whose finals are merged.  A language-keyed
            # stage-1 intersect would now substitute this 1-final
            # structure for the 2-final constant below, collapsing the
            # two crossings into one.
            ops.intersect(Nfa.universal(AB), self._one_final())
            poisoned = self._solve(self._two_finals())
        assert self._langs(poisoned) == self._langs(baseline)

    def test_stage1_solution_count_matches_cache_off(self):
        for build in (self._one_final, self._two_finals):
            uncached = self._solve(build())
            cache = LangCache()
            with cache.activate():
                cached = self._solve(build())
            assert self._langs(cached) == self._langs(uncached)


class TestLimitsAndStats:
    def test_lru_eviction_counts(self):
        cache = LangCache(CacheLimits(max_entries=4))
        with cache.activate():
            for pattern in ("a", "b", "c", "ab", "ba", "abc", "cba"):
                ops.intersect(machine(pattern, ABC), Nfa.universal(ABC))
        assert cache.evictions > 0
        assert len(cache._table) <= 4

    def test_stats_shape(self, cache):
        is_subset(machine("a*", ABC), machine("(a|b)*", ABC))
        summary = cache.stats()
        assert set(summary) == {
            "entries",
            "max_entries",
            "hits",
            "misses",
            "evictions",
            "hit_total",
            "miss_total",
        }
        assert summary["miss_total"] >= 1

    def test_counters_mirrored_into_obs(self):
        cache = LangCache()
        with obs.collect() as collector:
            with cache.activate():
                a, b = machine("a*b", ABC), machine("(a|b)*", ABC)
                ops.intersect(a, b)
                ops.intersect(b.copy(), a.copy())
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("cache.miss.intersect", 0) == 1
        assert counters.get("cache.hit.intersect", 0) == 1
        assert counters.get("op.product", 0) == 1
