"""Unit tests for the Concatenation-Intersection algorithm (Fig. 3)."""

from repro.automata import Nfa, equivalent, is_subset, ops, shortest_string
from repro.solver import check_ci_properties, concat_intersect

from ..helpers import ABC, language, machine


class TestBasics:
    def test_simple_split(self):
        # v1 ⊆ a*, v2 ⊆ b*, v1·v2 ⊆ ab: the only split is (a, b).
        solutions = concat_intersect(machine("a*"), machine("b*"), machine("ab"))
        assert len(solutions) >= 1
        lhs, rhs = solutions[0]
        assert language(lhs) == {"a"}
        assert language(rhs) == {"b"}

    def test_no_solution_when_disjoint(self):
        solutions = concat_intersect(machine("a+"), machine("b+"), machine("c+"))
        assert solutions == []

    def test_empty_side_rejected(self):
        # Every split of c3=b puts ε on the v1 side, but v1 ⊆ a+ has no ε.
        solutions = concat_intersect(machine("a+"), machine("b"), machine("b"))
        assert solutions == []

    def test_epsilon_split_allowed(self):
        solutions = concat_intersect(machine("a*"), machine("b"), machine("b"))
        assert len(solutions) == 1
        lhs, rhs = solutions[0]
        assert language(lhs) == {""}
        assert language(rhs) == {"b"}

    def test_crossing_recorded(self):
        solutions = concat_intersect(machine("a"), machine("b"), machine("ab"))
        (solution,) = solutions
        src, dst = solution.crossing
        assert src != dst


class TestMotivatingExample:
    """The paper's Fig. 4 instance: c1 = nid_, c2 = broken filter,
    c3 = strings containing a quote (over the byte alphabet)."""

    def setup_method(self):
        from repro.regex import parse_exact, to_nfa

        self.c1 = Nfa.literal("nid_")
        self.c2 = to_nfa(parse_exact(r".*[0-9]+"))
        self.c3 = to_nfa(parse_exact(r".*'.*"))

    def test_single_solution(self):
        solutions = concat_intersect(self.c1, self.c2, self.c3, dedupe=True)
        assert len(solutions) == 1

    def test_lhs_is_whole_constant(self):
        # The paper: ⟦x'1⟧ = L(nid_), as desired.
        (solution,) = concat_intersect(self.c1, self.c2, self.c3, dedupe=True)
        assert equivalent(solution.lhs, self.c1)

    def test_rhs_is_exploit_language(self):
        # "all strings that contain a single quote and end with a digit".
        (solution,) = concat_intersect(self.c1, self.c2, self.c3, dedupe=True)
        assert solution.rhs.accepts("' OR 1=1 ; DROP news --9")
        assert solution.rhs.accepts("'9")
        assert not solution.rhs.accepts("99")  # no quote
        assert not solution.rhs.accepts("123")
        assert not solution.rhs.accepts("'x")  # no trailing digit

    def test_witness_extraction(self):
        (solution,) = concat_intersect(self.c1, self.c2, self.c3, dedupe=True)
        witness = shortest_string(solution.rhs)
        assert witness is not None
        assert "'" in witness and witness[-1].isdigit()


class TestProofProperties:
    """The executable analogue of the paper's Coq theorem (Sec. 3.3)."""

    def check(self, p1: str, p2: str, p3: str) -> None:
        c1, c2, c3 = machine(p1), machine(p2), machine(p3)
        solutions = concat_intersect(c1, c2, c3)
        report = check_ci_properties(c1, c2, c3, solutions)
        assert report.ok, report.violations

    def test_simple(self):
        self.check("a*", "b*", "a*b*")

    def test_disjunctive(self):
        self.check("a+", "b+", "ab|aabb|abb")

    def test_with_overlap(self):
        self.check("(a|b)*", "(b|c)*", "a*b*c*")

    def test_unsat_instance(self):
        self.check("a", "b", "c")

    def test_epsilon_heavy(self):
        self.check("a*", "a*", "a{2,4}")

    def test_solutions_bounded_by_m3(self):
        # Sec. 3.5: the number of solutions is bounded by |M3|.
        c1, c2, c3 = machine("(a|b)*"), machine("(a|b)*"), machine("abab")
        solutions = concat_intersect(c1, c2, c3)
        bound = ops.eliminate_epsilon(c3).num_states
        assert 0 < len(solutions) <= bound


class TestMaximize:
    def test_sec311_closure(self):
        # Per-transition slices for v1·v2 ⊆ xyyz|xyyyyz are not maximal;
        # the closed pairs are the paper's A1 and A2 (Sec. 3.1.1).
        alphabet = ABC  # letters x,y,z not in ABC: build over bytes
        from repro.regex import parse_exact, to_nfa

        c1 = to_nfa(parse_exact("x(yy)+"))
        c2 = to_nfa(parse_exact("(yy)*z"))
        c3 = to_nfa(parse_exact("xyyz|xyyyyz"))
        solutions = concat_intersect(c1, c2, c3, dedupe=True, maximize=True)
        langs = {
            (frozenset(_words(s.lhs)), frozenset(_words(s.rhs)))
            for s in solutions
        }
        a1 = (frozenset({"xyy"}), frozenset({"z", "yyz"}))
        a2 = (frozenset({"xyy", "xyyyy"}), frozenset({"z"}))
        assert a1 in langs and a2 in langs
        assert len(solutions) == 2

    def test_maximized_still_satisfying(self):
        c1, c2, c3 = machine("a*"), machine("(b|a)*"), machine("a{2}b{2}|ab")
        for solution in concat_intersect(c1, c2, c3, maximize=True):
            assert is_subset(solution.lhs, c1)
            assert is_subset(solution.rhs, c2)
            assert is_subset(ops.concat(solution.lhs, solution.rhs), c3)


def _words(nfa, limit=20):
    from repro.automata import enumerate_strings

    return list(enumerate_strings(nfa, limit=limit, max_length=10))
