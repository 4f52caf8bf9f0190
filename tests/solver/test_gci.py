"""Unit tests for the generalized CI procedure over CI-groups (Fig. 8)."""

import pathlib

import pytest

from repro import obs
from repro.automata import enumerate_strings, equivalent, is_subset, ops
from repro.constraints import Node, Subset, Var, build_graph, parse_problem
from repro.constraints.depgraph import DepGraph
from repro.constraints.terms import ConcatTerm, Const, Problem
from repro.check.diagnostics import CODES, Severity
from repro.solver import GciLimits, SolveLimitExceeded, gci, solve, solve_group
from repro.solver.verify import check_assignment

from .. import oracle
from ..helpers import ABC, OVER_LIMIT_SOURCE, machine, raw_walk

DATA = pathlib.Path(__file__).parent.parent / "data"


def _const(name: str, pattern: str) -> Const:
    return Const.from_regex(name, pattern, ABC)


def _one_group(*constraints: Subset):
    graph, _ = build_graph(Problem(list(constraints), alphabet=ABC))
    (group,) = graph.ci_groups()
    return graph, group


def run_group(*constraints: Subset, limits: GciLimits | None = None):
    return solve_group(*_one_group(*constraints), limits)


def select_raw(*constraints: Subset, **limits):
    """The selector fed the raw walk of a one-group system directly:
    unmaximized slices, so some candidates are subsumed by others."""
    prepared, walk = raw_walk(*_one_group(*constraints))
    return list(gci._select(prepared, GciLimits(**limits), walk))


def _dominated(candidates, i: int) -> bool:
    """Is candidate ``i`` pointwise below another one, or equal to an
    earlier one?"""
    mine = candidates[i]
    for j, other in enumerate(candidates):
        if j != i and all(is_subset(mine[n], other[n]) for n in mine):
            if j < i or not all(is_subset(other[n], mine[n]) for n in other):
                return True
    return False


def _assert_frontier_is_eager_prune(graph, group, maximize: bool) -> None:
    """The selector's frontier over the candidate stream — maximized, as
    in production, or the raw walk — keeps exactly the survivors of an
    eager pairwise scan of that stream."""

    def candidates():
        prepared, walk = raw_walk(graph, group)
        return prepared, gci._maximized(prepared, walk) if maximize else walk

    raw = [sol for _, sol in candidates()[1]]
    eager = [sol for i, sol in enumerate(raw) if not _dominated(raw, i)]
    prepared, stream = candidates()
    online = list(gci._select(prepared, GciLimits(), stream))
    assert len(online) == len(eager) > 0
    for want, got in zip(eager, online):
        assert all(equivalent(want[n], got[n]) for n in want)


def words(nfa, limit=30):
    return frozenset(enumerate_strings(nfa, limit=limit, max_length=12))


class TestSingleConcat:
    def test_basic_split(self):
        solutions = run_group(
            Subset(Var("x"), _const("c1", "a*")),
            Subset(Var("y"), _const("c2", "b*")),
            Subset(Var("x").concat(Var("y")), _const("c3", "aabb")),
        )
        assert len(solutions) == 1
        (solution,) = solutions
        assert words(solution[Node("var", "x")]) == {"aa"}
        assert words(solution[Node("var", "y")]) == {"bb"}

    def test_unconstrained_leaf_is_sigma_star(self):
        # y has no subset constraint: it defaults to Σ*.
        solutions = run_group(
            Subset(Var("x"), _const("c1", "a")),
            Subset(Var("x").concat(Var("y")), _const("c3", "ab*")),
        )
        (solution,) = solutions
        assert words(solution[Node("var", "y")], limit=5) == {"", "b", "bb", "bbb", "bbbb"}

    def test_constant_operand(self):
        # The motivating example's shape: const · var ⊆ c3.
        solutions = run_group(
            Subset(Var("v"), _const("filter", "(a|b)*b")),
            Subset(_const("pre", "a").concat(Var("v")), _const("c3", "a(a|b)*bb")),
        )
        (solution,) = solutions
        v_lang = solution[Node("var", "v")]
        assert v_lang.accepts("abb")
        assert v_lang.accepts("bb")
        assert not v_lang.accepts("b")

    def test_unsatisfiable_group_empty(self):
        solutions = run_group(
            Subset(Var("x"), _const("c1", "a+")),
            Subset(Var("x").concat(Var("y")), _const("c3", "b+")),
        )
        assert solutions == []


class TestNesting:
    def test_three_way_concat(self):
        solutions = run_group(
            Subset(Var("x"), _const("cx", "a+")),
            Subset(Var("y"), _const("cy", "b+")),
            Subset(Var("z"), _const("cz", "c+")),
            Subset(
                ConcatTerm((Var("x"), Var("y"), Var("z"))),
                _const("c4", "abc|aabcc"),
            ),
        )
        combos = {
            (
                words(s[Node("var", "x")]),
                words(s[Node("var", "y")]),
                words(s[Node("var", "z")]),
            )
            for s in solutions
        }
        assert (frozenset({"a"}), frozenset({"b"}), frozenset({"c"})) in combos
        assert (frozenset({"aa"}), frozenset({"b"}), frozenset({"cc"})) in combos

    def test_push_back_through_tower(self):
        # x·y·z ⊆ {abc} with all three unconstrained: every way of
        # splitting "abc" into three pieces is its own (incomparable)
        # maximal assignment — C(3+2, 2) = 10 of them.
        solutions = run_group(
            Subset(
                ConcatTerm((Var("x"), Var("y"), Var("z"))),
                _const("c4", "abc"),
            ),
        )
        assert len(solutions) == 10
        splits = {
            (
                "".join(words(s[Node("var", "x")])),
                "".join(words(s[Node("var", "y")])),
                "".join(words(s[Node("var", "z")])),
            )
            for s in solutions
        }
        assert ("a", "b", "c") in splits
        assert ("abc", "", "") in splits
        for x, y, z in splits:
            assert x + y + z == "abc"


class TestSharedVariables:
    def fig9_constraints(self):
        # Letters o,p,q,r are outside ABC: use bytes for fidelity.
        from repro.constraints.dsl import parse_problem

        return parse_problem(
            """
            var va, vb, vc;
            va <= /o(pp)+/;
            vb <= /p*(qq)+/;
            vc <= /q*r/;
            va . vb <= /op{5}q*/;
            vb . vc <= /p*q{4}r/;
            """
        )

    def test_fig9_solutions(self):
        problem = self.fig9_constraints()
        graph, _ = build_graph(problem)
        (group,) = graph.ci_groups()
        solutions = solve_group(graph, group)
        combos = {
            (
                words(s[Node("var", "va")]),
                words(s[Node("var", "vb")]),
                words(s[Node("var", "vc")]),
            )
            for s in solutions
        }
        # The paper's two assignments (Sec. 3.4.4) are found...
        paper_a1 = (
            frozenset({"opp"}),
            frozenset({"pppqq"}),
            frozenset({"qqr"}),
        )
        paper_a2 = (
            frozenset({"opppp"}),
            frozenset({"pqq"}),
            frozenset({"qqr"}),
        )
        assert paper_a1 in combos
        assert paper_a2 in combos
        # ...plus the two symmetric ones its Def. 3.1 also admits
        # (see DESIGN.md, "Known paper discrepancy").
        assert len(solutions) == 4

    def test_shared_var_satisfies_both_constraints(self):
        problem = self.fig9_constraints()
        graph, _ = build_graph(problem)
        (group,) = graph.ci_groups()
        c1 = machine("op{5}q*", problem.alphabet)
        c2 = machine("p*q{4}r", problem.alphabet)
        for solution in solve_group(graph, group):
            va = solution[Node("var", "va")]
            vb = solution[Node("var", "vb")]
            vc = solution[Node("var", "vc")]
            assert is_subset(ops.concat(va, vb), c1)
            assert is_subset(ops.concat(vb, vc), c2)

    def test_same_var_twice_in_one_concat(self):
        solutions = run_group(
            Subset(Var("x").concat(Var("x")), _const("c", "aa|bb")),
        )
        for solution in solutions:
            lang = words(solution[Node("var", "x")])
            # x·x ⊆ aa|bb requires x ⊆ {a} or x ⊆ {b} (not {a,b}: ab ∉ c).
            assert lang in ({"a"}, {"b"})


class TestLimits:
    def test_max_solutions(self):
        limits = GciLimits(max_solutions=1)
        solutions = run_group(
            Subset(Var("x").concat(Var("y")), _const("c", "ab|aab|abb")),
            limits=limits,
        )
        assert len(solutions) == 1

    def test_combination_guard(self):
        limits = GciLimits(max_combinations=0)
        with pytest.raises(SolveLimitExceeded):
            run_group(
                Subset(Var("x").concat(Var("y")), _const("c", "ab")),
                limits=limits,
            )

    def test_default_combination_limit_is_typed_d101(self):
        with pytest.raises(SolveLimitExceeded, match="226981") as caught:
            solve(parse_problem(OVER_LIMIT_SOURCE))
        assert caught.value.code == "D101"
        assert CODES["D101"][0] is Severity.ERROR

    # The online frontier has no dedupe step of its own: it must still
    # return exactly the raw stream's survivors of a full pairwise scan,
    # the earliest of equal candidates kept.
    @pytest.mark.parametrize("fixture", ["disjunctive.dprle", "wide.dprle"])
    def test_frontier_equals_eager_prune(self, fixture):
        graph, _ = build_graph(parse_problem((DATA / fixture).read_text()))
        for group in graph.ci_groups():
            _assert_frontier_is_eager_prune(graph, group, maximize=True)

    @pytest.mark.parametrize("pattern", ["ab|ab*|b", "(a|aa)(b|bb)|ab"])
    def test_raw_slice_frontier_equals_eager_prune(self, pattern):
        # Unmaximized slices: later candidates subsumed by earlier ones.
        graph, group = _one_group(
            Subset(Var("x").concat(Var("y")), _const("c", pattern))
        )
        _assert_frontier_is_eager_prune(graph, group, maximize=False)

    def test_prune_subsumed(self):
        # The raw per-transition slices of this system include subsumed
        # entries; the selector must remove them.
        solutions = select_raw(
            Subset(Var("x"), _const("c1", "a*")),
            Subset(Var("y"), _const("c2", "(a|b)*")),
            Subset(Var("x").concat(Var("y")), _const("c3", "a*b")),
        )
        for i, left in enumerate(solutions):
            for j, right in enumerate(solutions):
                if i == j:
                    continue
                dominated = all(
                    is_subset(left[node], right[node]) for node in left
                )
                assert not dominated


class TestPruneTruncationRegression:
    """``max_solutions=N`` must return N *surviving* solutions whenever
    N exist.

    The old implementation truncated the enumeration at N candidates
    and pruned afterwards, so a subsumed early candidate both shrank
    the returned count below N and could itself be returned despite
    being non-maximal.  The raw walk of the ``ab|ab*|b`` group triggers
    it: the second candidate ``({a}, {b})`` is strictly subsumed by the
    third, ``({a}, b*)``.  Maximization closes that gap before the
    selector sees it, so the selector is fed the raw walk directly.
    """

    CONSTRAINT = Subset(Var("x").concat(Var("y")), _const("c3", "ab|ab*|b"))

    def _candidates(self):
        return [sol for _, sol in raw_walk(*_one_group(self.CONSTRAINT))[1]]

    def _solutions(self, **limits):
        return select_raw(self.CONSTRAINT, **limits)

    @staticmethod
    def _survivors(candidates):
        return [
            sol
            for i, sol in enumerate(candidates)
            if not any(
                j != i and all(is_subset(sol[n], other[n]) for n in sol)
                for j, other in enumerate(candidates)
            )
        ]

    def test_group_has_early_subsumed_candidate(self):
        # Precondition for the regression: an early candidate is
        # strictly subsumed by a later one.
        candidates = self._candidates()
        assert len(candidates) == 6
        early, later = candidates[1], candidates[2]
        assert all(is_subset(early[n], later[n]) for n in early)
        assert not all(is_subset(later[n], early[n]) for n in later)

    def test_capped_enumeration_returns_n_survivors(self):
        full = self._solutions()
        assert len(full) == 4
        # The old code returned only 2 solutions here (candidates 0-2
        # collected, the subsumed one pruned away).
        capped = self._solutions(max_solutions=3)
        assert len(capped) == 3
        for got, want in zip(capped, full):
            assert all(equivalent(got[n], want[n]) for n in got)

    def test_capped_solutions_are_maximal(self):
        # The old code returned the subsumed candidate itself at N=2.
        capped = self._solutions(max_solutions=2)
        assert len(capped) == 2
        survivors = self._survivors(self._candidates())
        for solution in capped:
            assert any(
                all(equivalent(solution[n], keep[n]) for n in solution)
                for keep in survivors
            )


class TestRepeatedVariable:
    """``_maximize_solution`` leaves a variable that occurs twice in one
    constraint at its sliced value, and nothing reports it.  On
    ``x ⊆ a*``, ``x·x ⊆ (aa)*`` the solver returns ``{ε}``, ``a(aa)*``
    and ``(aa)+``; only ``a(aa)*`` is maximal (``{ε}`` and ``(aa)+``
    both grow to ``(aa)*``)."""

    @pytest.mark.xfail(
        strict=True,
        reason="a repeated variable keeps its sliced value (ROADMAP item 5)",
    )
    def test_every_assignment_is_maximal(self):
        x = Var("x")
        problem = Problem(
            [
                Subset(x, _const("c1", "a*")),
                Subset(x.concat(x), _const("c2", "(aa)*")),
            ],
            alphabet=ABC,
        )
        solutions = solve(problem)
        assert len(solutions) > 0
        for assignment in solutions:
            report = check_assignment(problem, assignment)
            assert report.satisfying, report.violations
            assert report.maximal is not False, report.violations


class TestOccurrenceSlices:
    """Each slice the solver memoizes is the top machine restricted to
    the occurrence's boundary, exactly as copy → set_start/set_final →
    the reference trim in tests/oracle.py builds it."""

    @pytest.mark.parametrize("fixture", ["fig9.dprle", "wide.dprle", "wider.dprle"])
    def test_slices_match_reference_trim(self, fixture):
        graph, _ = build_graph(parse_problem((DATA / fixture).read_text()))
        for group in graph.ci_groups():
            prepared, walk = raw_walk(graph, group)
            assert prepared is not None
            # Walk every combination so the memo holds every slice used.
            for _ in walk:
                pass
            assert prepared.slice_memo
            for (occ_index, start_edge, final_edge), piece in (
                prepared.slice_memo.items()
            ):
                reference = prepared.machines[
                    prepared.occurrences[occ_index].top
                ].copy()
                if start_edge is not None:
                    reference.set_start(start_edge[1])
                if final_edge is not None:
                    reference.set_final(final_edge[0])
                reference = oracle.trim(reference)
                if reference.is_empty():
                    assert piece is None
                else:
                    assert oracle.structure(piece) == oracle.structure(reference)


class TestMaximizeOnePass:
    """The Galois maximization is one Gauss–Seidel pass, and that pass
    is already the fixpoint (see ``gci._maximize_solution``)."""

    def test_shrunk_variable_grows_back_in_one_call(self):
        problem = Problem(
            [
                Subset(Var("x"), _const("c1", "a*")),
                Subset(Var("y"), _const("c2", "b*")),
                Subset(Var("x").concat(Var("y")), _const("c3", "a*b*")),
            ],
            alphabet=ABC,
        )
        graph, _ = build_graph(problem)
        (group,) = graph.ci_groups()
        prepared, walk = raw_walk(graph, group)
        _, solution = next(walk)
        # Deliberately shrink x: one call grows it back to a*.
        solution[Node("var", "x")] = machine("a")
        result = gci._maximize_solution(prepared, solution)
        assert equivalent(result[Node("var", "x")], machine("a*"))
        assert equivalent(result[Node("var", "y")], machine("b*"))

    @pytest.mark.parametrize(
        "fixture", sorted(p.name for p in DATA.glob("*.dprle"))
    )
    def test_idempotent_on_corpus_groups(self, fixture):
        graph, _ = build_graph(parse_problem((DATA / fixture).read_text()))
        for group in graph.ci_groups():
            prepared, walk = raw_walk(graph, group)
            if prepared is None:
                continue
            for _, solution in gci._maximized(prepared, walk):
                again = gci._maximize_solution(prepared, solution)
                assert again.keys() == solution.keys()
                for node, grown in again.items():
                    assert equivalent(grown, solution[node]), (fixture, node)


class TestBareConcatTop:
    """A top with no inbound constant is a bare ``ops.concat``, never a
    product, so it is not trimmed: stage 4 must keep its live filter.
    ``build_graph`` always puts a constant on a top, so these graphs are
    built by hand."""

    @staticmethod
    def _solve(*patterns: str):
        graph = DepGraph(ABC)
        x, y = graph.var_node("x"), graph.var_node("y")
        graph.add_concat(x, y)
        for index, pattern in enumerate(patterns):
            graph.add_subset(graph.const_node(_const(f"c{index}", pattern)), y)
        (group,) = graph.ci_groups()
        with obs.collect() as collector:
            solutions = solve_group(graph, group)
        counters = collector.metrics.snapshot()["counters"]
        return solutions, counters.get("gci.combinations_total", 0)

    def test_empty_right_operand_has_no_bridge_to_choose(self):
        # y ⊆ a and y ⊆ b leave y empty: the bridge out of x leads into
        # dead states, so there is no combination at all, not one that
        # slices empty.
        solutions, total = self._solve("a", "b")
        assert solutions == []
        assert total == 0

    def test_live_bridge_is_kept(self):
        solutions, total = self._solve("a|b", "b|c")
        assert total == 1
        (solution,) = solutions
        assert equivalent(solution[Node("var", "x")], machine("(a|b|c)*"))
        assert words(solution[Node("var", "y")]) == {"b"}
