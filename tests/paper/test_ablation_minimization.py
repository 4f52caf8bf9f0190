"""Ablation — intermediate NFA minimization (paper Sec. 4).

The paper suggests that "more efficient use of the intermediate NFAs
(e.g., by applying NFA minimization techniques) might improve
performance" on its outlier.  The solver has no minimization knob; this
ablation minimizes the leaf languages itself.  :func:`minimized_leaf_problem`
replaces each variable's subset constants by one constant, the minimal
DFA of their intersection, which is a language-equal problem.  The
cost measure is NFA states visited (Sec. 3.5) by the solve; minimizing
the leaf is a one-off step before it, outside the count.
"""

import functools

from repro import obs
from repro.analysis import CONTAINS_QUOTE, VULN_SPECS, make_vulnerable_source
from repro.automata import minimize_nfa, ops
from repro.automata.equivalence import equivalent
from repro.constraints import parse_problem
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.php import parse_php
from repro.php.symexec import SymbolicExecutor
from repro.solver import GciLimits, solve

#: A variable constrained by the same language written redundantly: the
#: leaf product has size ~|r|^3 unless minimized back down.
REDUNDANT = """
var v, w;
v <= /(a|b)*abb(a|b)*/;
v <= /(a|b)*ab(a|b)*b*/;
v <= /(b|a)*a(b|a)*bb(b|a)*/;
v . w <= /(a|b)*abba/;
"""

SECURE_SCALE = 0.3

#: Serial, so the counts do not depend on DPRLE_WORKERS.
SERIAL = GciLimits(workers=0)


def minimized_leaf_problem(problem: Problem) -> Problem:
    """``problem`` with every ``var ⊆ const`` group collapsed into one
    constraint on the minimal DFA of the constants' intersection."""
    leaves: dict[Var, list[Const]] = {}
    rest = []
    for constraint in problem.constraints:
        if isinstance(constraint.lhs, Var):
            leaves.setdefault(constraint.lhs, []).append(constraint.rhs)
        else:
            rest.append(constraint)
    minimized = [
        Subset(
            var,
            Const(
                f"min_{var.name}",
                minimize_nfa(
                    functools.reduce(ops.intersect, [c.machine for c in consts])
                ),
            ),
        )
        for var, consts in leaves.items()
    ]
    return Problem(minimized + rest, alphabet=problem.alphabet)


def test_minimized_leaf_same_answers_fewer_states():
    """Redundant constants, first solution: minimizing the leaf keeps
    the answer's languages and the solve visits fewer states (930
    plain against 123 when this test was written)."""
    problem = parse_problem(REDUNDANT)
    leaf_minimized = minimized_leaf_problem(problem)
    with obs.collect() as plain_cost:
        plain = solve(problem, max_solutions=1, limits=SERIAL)
    with obs.collect() as minimized_cost:
        minimized = solve(leaf_minimized, max_solutions=1, limits=SERIAL)

    assert plain.satisfiable
    assert len(minimized) == len(plain)
    for want, got in zip(plain, minimized):
        assert got.variables() == want.variables()
        for name in want.variables():
            assert equivalent(want[name], got[name]), name
    assert minimized_cost.states_visited < plain_cost.states_visited


def _first_exploit(source: str, transform) -> dict:
    """Solve the file's sink queries in order, as ``analyze_source``
    does, and return the first non-empty assignment's inputs."""
    executor = SymbolicExecutor(CONTAINS_QUOTE.machine())
    for query in executor.run(parse_php(source, "secure.php")):
        solutions = solve(
            transform(query.problem()),
            query=query.inputs,
            max_solutions=1,
            limits=SERIAL,
        )
        for assignment in solutions.nonempty():
            return {name: assignment[name] for name in query.inputs}
    return {}


def test_secure_is_found_with_and_without_minimized_leaves():
    """The outlier's periodic padding machines are already minimal, so
    minimization does not rescue it, but it must not lose the
    vulnerability either."""
    spec = next(s for s in VULN_SPECS if s.name == "secure")
    source = make_vulnerable_source(spec, scale=SECURE_SCALE)
    plain = _first_exploit(source, lambda problem: problem)
    minimized = _first_exploit(source, minimized_leaf_problem)
    assert plain and minimized
    assert plain.keys() == minimized.keys()
    for name in plain:
        assert equivalent(plain[name], minimized[name]), name
