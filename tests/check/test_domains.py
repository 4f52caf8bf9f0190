"""Unit and property tests for the abstract domains.

The key obligation is soundness: for any machine ``m``, every member of
``L(m)`` must have its length inside ``abstract_of(m).length`` and its
characters inside ``abstract_of(m).chars`` — and the graph evaluation
must preserve that per-node for satisfying assignments.
"""

from hypothesis import example, given, settings

from repro.automata.analysis import enumerate_strings
from repro.automata.charset import CharSet
from repro.automata.nfa import Nfa
from repro.check import check_problem
from repro.check.domains import (
    AbstractLang,
    LengthInterval,
    abstract_of,
    evaluate_graph,
)
from repro.constraints.depgraph import build_graph
from repro.constraints.dsl import parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import solve

from ..helpers import AB, ABC, machine
from ..prop.strategies import machines


class TestLengthInterval:
    def test_make_normalizes_empty(self):
        assert LengthInterval.make(5, 3).is_empty()
        assert LengthInterval.make(5, 3) == LengthInterval.empty()

    def test_make_clamps_negative(self):
        assert LengthInterval.make(-2, 4) == LengthInterval.make(0, 4)

    def test_add(self):
        a = LengthInterval.make(1, 3)
        b = LengthInterval.make(2, None)
        assert a.add(b) == LengthInterval.make(3, None)
        assert a.add(LengthInterval.empty()).is_empty()

    def test_meet(self):
        a = LengthInterval.make(1, 5)
        b = LengthInterval.make(3, None)
        assert a.meet(b) == LengthInterval.make(3, 5)
        assert a.meet(LengthInterval.make(6, 9)).is_empty()

    def test_minus_is_sound_quotient(self):
        # x + y in [5,5] with y in [2,2]  =>  x in [3,3]
        whole = LengthInterval.exact(5)
        sibling = LengthInterval.exact(2)
        assert whole.minus(sibling) == LengthInterval.exact(3)
        # Unbounded sibling: any x >= 0 could work.
        assert whole.minus(LengthInterval.top()) == LengthInterval.make(0, 5)

    def test_minus_refutes(self):
        # x + y in [0,5] with y in [6,6] is impossible.
        assert LengthInterval.make(0, 5).minus(
            LengthInterval.exact(6)
        ).is_empty()


class TestAbstractLang:
    def test_empty_chars_forces_epsilon(self):
        v = AbstractLang.make(LengthInterval.make(0, 4), CharSet.empty())
        assert v.length == LengthInterval.exact(0)

    def test_empty_chars_with_positive_length_is_bottom(self):
        v = AbstractLang.make(LengthInterval.make(2, 4), CharSet.empty())
        assert v.is_empty()

    def test_concat_unions_chars_and_adds_lengths(self):
        a = abstract_of(Nfa.literal("ab", ABC))
        b = abstract_of(Nfa.literal("c", ABC))
        c = a.concat(b)
        assert c.length == LengthInterval.exact(3)
        assert not (c.chars & CharSet.single("c")).is_empty()

    def test_meet_intersects(self):
        a = abstract_of(machine("a|b"))
        b = abstract_of(machine("b|c"))
        m = a.meet(b)
        assert m.length == LengthInterval.exact(1)
        assert (m.chars & CharSet.single("a")).is_empty()


class TestAbstractOf:
    def test_empty_machine_is_bottom(self):
        assert abstract_of(Nfa.never(ABC)).is_empty()

    def test_literal_is_exact(self):
        v = abstract_of(Nfa.literal("abc", ABC))
        assert v.length == LengthInterval.exact(3)

    def test_infinite_language_unbounded(self):
        v = abstract_of(machine("a+"))
        assert v.length == LengthInterval.make(1, None)

    def test_range_bounds(self):
        v = abstract_of(machine("(a|b){2,5}"))
        assert v.length == LengthInterval.make(2, 5)

    @settings(max_examples=30, deadline=None)
    @given(machines(max_depth=3))
    def test_soundness_on_random_machines(self, m):
        value = abstract_of(m)
        members = list(enumerate_strings(m, limit=25))
        if m.is_empty():
            assert value.is_empty()
            assert not members
            return
        for text in members:
            assert value.length.lo <= len(text)
            if value.length.hi is not None:
                assert len(text) <= value.length.hi
            for ch in text:
                assert not (value.chars & CharSet.single(ch)).is_empty()


class TestEvaluateGraph:
    def _abstraction(self, text):
        problem = parse_problem(text)
        graph, _ = build_graph(problem)
        return graph, evaluate_graph(graph)

    def test_subset_meets_flow_into_variables(self):
        graph, abstraction = self._abstraction(
            "var v; v <= /[ab]{2,4}/; v <= /[bc]{3,9}/;"
        )
        (node,) = graph.var_nodes()
        value = abstraction.value(node)
        assert value.length == LengthInterval.make(3, 4)
        # Footprint meets to {b} only.
        assert (value.chars & CharSet.single("a")).is_empty()
        assert not (value.chars & CharSet.single("b")).is_empty()

    def test_disjoint_footprints_prove_empty(self):
        graph, abstraction = self._abstraction(
            "var v; v <= /a+/; v <= /b+/;"
        )
        (node,) = graph.var_nodes()
        assert abstraction.proved_empty(node)

    def test_backward_quotient_refutes(self):
        # The unsat_static pattern: |v| = 5 but 2 + |v| <= 5.
        graph, abstraction = self._abstraction(
            'var v; v <= /[ab]{5}/; "xx" . v <= /[abx]{0,5}/;'
        )
        (group,) = graph.ci_groups()
        assert abstraction.unsat_witness(group) is not None

    def test_satisfiable_group_has_no_witness(self):
        graph, abstraction = self._abstraction(
            'var v; v <= /[ab]{1,3}/; "xx" . v <= /[abx]{0,5}/;'
        )
        (group,) = graph.ci_groups()
        assert abstraction.unsat_witness(group) is None

    def test_empty_sibling_skips_backward_step(self):
        # c-empty sibling: the concat is empty, so the tight result
        # constraint must NOT refine the other operand to bottom.
        graph, abstraction = self._abstraction(
            'var v, w; v <= /[ab]{5}/; w <= /a+/ & /b+/; w . v <= "x";'
        )
        for node in graph.var_nodes():
            if node.name == "v":
                assert not abstraction.proved_empty(node)
            else:
                assert abstraction.proved_empty(node)

    @settings(max_examples=15, deadline=None)
    @given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
    def test_graph_soundness_on_random_systems(self, c1, c2, c3):
        """Every satisfying assignment's languages must lie inside the
        per-node abstractions (checked via the solver's witnesses)."""
        problem = Problem(
            [
                Subset(Var("x"), Const("c1", c1)),
                Subset(Var("y"), Const("c2", c2)),
                Subset(Var("x").concat(Var("y")), Const("c3", c3)),
            ],
            alphabet=AB,
        )
        graph, _ = build_graph(problem)
        abstraction = evaluate_graph(graph)
        solutions = solve(problem)
        by_name = {n.name: n for n in graph.var_nodes()}
        for assignment in solutions.nonempty():
            if not assignment.all_nonempty():
                continue  # outside the all-vars-nonempty candidate space
            for name in assignment.variables():
                value = abstraction.value(by_name[name])
                for text in enumerate_strings(assignment[name], limit=8):
                    assert value.length.lo <= len(text)
                    if value.length.hi is not None:
                        assert len(text) <= value.length.hi


class TestCheckVerdictsAgreeWithSolve:
    """``dprle check``'s refutations are sound against the real solve.

    On random systems with one CI-group (``x·y``, the serial/parallel
    suite's shape) or one concat-free variable, a D021 (instance proved
    unsatisfiable) means ``solve`` finds zero assignments, and a D020 on
    a basic variable (one in no concatenation) means every assignment
    maps it to ∅.  The pinned examples make sure both verdicts fire on
    every run.
    """

    @staticmethod
    def _assert_verdicts_hold(problem):
        graph, _ = build_graph(problem)
        basic = {
            node.name
            for node in graph.var_nodes()
            if not graph.in_some_concat(node)
        }
        report = check_problem(problem)
        result = solve(problem)
        for diagnostic in report.diagnostics:
            if diagnostic.code == "D021":
                assert len(result) == 0
            elif diagnostic.code == "D020" and diagnostic.node in basic:
                for assignment in result:
                    assert assignment[diagnostic.node].is_empty()

    @settings(max_examples=100, deadline=None)
    @given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
    @example(machine("aaa", AB), machine("b*", AB), machine("a{0,2}", AB))
    def test_rma_systems(self, c1, c2, c3):
        problem = Problem(
            [
                Subset(Var("x"), Const("c1", c1)),
                Subset(Var("y"), Const("c2", c2)),
                Subset(Var("x").concat(Var("y")), Const("c3", c3)),
            ],
            alphabet=AB,
        )
        self._assert_verdicts_hold(problem)

    @settings(max_examples=100, deadline=None)
    @given(machines(max_depth=2), machines(max_depth=2))
    @example(machine("a+", AB), machine("b+", AB))
    def test_basic_systems(self, c1, c2):
        problem = Problem(
            [
                Subset(Var("x"), Const("c1", c1)),
                Subset(Var("x"), Const("c2", c2)),
            ],
            alphabet=AB,
        )
        self._assert_verdicts_hold(problem)
