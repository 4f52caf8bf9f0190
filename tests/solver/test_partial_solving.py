"""Tests for partial-graph solving (paper Sec. 4's client-analysis knob)."""

import pytest

from repro import obs
from repro.constraints import parse_problem
from repro.solver import solve


PROBLEM = """
var cheap, l, r, x, y;
cheap <= /k+/;
l . r <= /ab|aabb/;
x . y <= /mn|mmnn|mmmnnn/;
"""


class TestOnly:
    def test_only_returns_requested_vars(self):
        problem = parse_problem(PROBLEM)
        solutions = solve(problem, only=["cheap"])
        assignment = solutions.first
        assert assignment.variables() == ["cheap"]

    def test_only_group_vars(self):
        problem = parse_problem(PROBLEM)
        solutions = solve(problem, only=["l"])
        assignment = solutions.first
        # The whole group containing l is solved (r comes along)…
        assert "l" in assignment and "r" in assignment
        # …but the other group and the basic var are untouched.
        assert "x" not in assignment
        assert "cheap" not in assignment

    def test_partial_solving_skips_work(self):
        problem = parse_problem(PROBLEM)
        with obs.collect() as full_cost:
            solve(problem)
        with obs.collect() as partial_cost:
            solve(problem, only=["cheap"])
        assert partial_cost.states_visited < full_cost.states_visited

    def test_fewer_disjuncts_without_other_groups(self):
        problem = parse_problem(PROBLEM)
        full = solve(problem)
        partial = solve(problem, only=["x"])
        # The full cross product multiplies both groups' disjuncts.
        assert len(partial) < len(full)

    def test_unknown_variable_rejected(self):
        problem = parse_problem(PROBLEM)
        with pytest.raises(ValueError):
            solve(problem, only=["nonexistent"])

    def test_satisfiability_scoped_to_requested(self):
        problem = parse_problem(
            """
            var dead, live;
            dead <= /a/;
            dead <= /b/;
            live <= /c/;
            """
        )
        assert not solve(problem).satisfiable
        assert solve(problem, only=["live"]).satisfiable
