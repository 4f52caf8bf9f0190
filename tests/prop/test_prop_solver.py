"""Property tests for the decision procedure itself.

These are the executable counterparts of the paper's Coq theorem
(Sec. 3.3), run over *random* CI instances and RMA problems instead of
hand-picked ones.
"""

from hypothesis import given, settings

from repro.automata import ops
from repro.automata.equivalence import is_subset
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import (
    check_assignment,
    check_ci_properties,
    concat_intersect,
    solve,
)
from repro.solver.gci import GciLimits

from ..helpers import AB
from .strategies import machines, regexes

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
def test_ci_proof_properties_hold(c1, c2, c3):
    solutions = concat_intersect(c1, c2, c3)
    report = check_ci_properties(c1, c2, c3, solutions)
    assert report.ok, report.violations


@SETTINGS
@given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
def test_ci_maximized_still_satisfying_and_covering(c1, c2, c3):
    solutions = concat_intersect(c1, c2, c3, dedupe=True, maximize=True)
    report = check_ci_properties(c1, c2, c3, solutions)
    assert report.ok, report.violations


@SETTINGS
@given(regexes(max_depth=2), regexes(max_depth=2))
def test_basic_var_solution_is_exact_intersection(r1, r2):
    from repro.regex import to_nfa

    c1 = Const("c1", to_nfa(r1, AB))
    c2 = Const("c2", to_nfa(r2, AB))
    problem = Problem(
        [Subset(Var("v"), c1), Subset(Var("v"), c2)], alphabet=AB
    )
    solutions = solve(problem)
    assert len(solutions) == 1
    answer = solutions.assignments[0]["v"]
    expected = ops.intersect(c1.machine, c2.machine)
    assert is_subset(answer, expected) and is_subset(expected, answer)


@SETTINGS
@given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
def test_rma_solutions_verify(c1, c2, c3):
    problem = Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(Var("y"), Const("c2", c2)),
            Subset(Var("x").concat(Var("y")), Const("c3", c3)),
        ],
        alphabet=AB,
    )
    solutions = solve(problem, limits=GciLimits(max_combinations=10_000))
    for assignment in solutions.nonempty():
        report = check_assignment(problem, assignment)
        assert report.satisfying, report.violations
        assert report.maximal is not False, report.violations


@SETTINGS
@given(machines(max_depth=2), machines(max_depth=2))
def test_rma_maximal_when_linear(c1, c3):
    """With each variable occurring once, returned assignments are
    exactly maximal (decided, not sampled)."""
    problem = Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(Var("x").concat(Var("y")), Const("c3", c3)),
        ],
        alphabet=AB,
    )
    solutions = solve(problem, limits=GciLimits(max_combinations=10_000))
    for assignment in solutions.nonempty():
        report = check_assignment(problem, assignment)
        assert report.satisfying, report.violations
        assert report.maximal is True, report.violations


@SETTINGS
@given(machines(max_depth=2))
def test_unsat_never_produces_spurious_witness(attack):
    """If the solver reports satisfiable, the witness string really
    drives the constraint; if unsatisfiable, the intersection is empty."""
    filter_const = Const("f", attack)
    problem = Problem(
        [Subset(Var("v"), filter_const)],
        alphabet=AB,
    )
    solutions = solve(problem)
    if solutions.satisfiable:
        witness = solutions.first.witness("v")
        assert witness is not None
        assert attack.accepts(witness)
    else:
        assert attack.is_empty()


@SETTINGS
@given(
    machines(max_depth=2),
    machines(max_depth=2),
    machines(max_depth=2),
    machines(max_depth=2),
)
def test_maximization_is_idempotent(c1, c2, c3, k):
    """The one-pass maximization returns a fixpoint: applied to its own
    output it changes no variable's language."""
    from repro.automata.equivalence import equivalent
    from repro.constraints import build_graph
    from repro.solver import gci

    problem = Problem(
        [
            Subset(Var("x"), Const("c1", c1)),
            Subset(Var("y"), Const("c2", c2)),
            Subset(
                Var("x").concat(Const("k", k)).concat(Var("y")),
                Const("c3", c3),
            ),
        ],
        alphabet=AB,
    )
    graph, _ = build_graph(problem)
    limits = GciLimits(max_combinations=10_000)
    for group in graph.ci_groups():
        prepared = gci._prepare_group(graph, group, limits)
        if prepared is None:
            continue
        walk = gci._iter_candidates(prepared, 0, None)
        for _, solution in gci._maximized(prepared, walk):
            again = gci._maximize_solution(prepared, solution)
            for node, grown in again.items():
                assert equivalent(grown, solution[node]), node
