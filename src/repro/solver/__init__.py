"""The decision procedure: CI, generalized CI, and the worklist solver."""

from .api import RegLangSolver
from .assignments import Assignment, SolutionSet
from .ci import CiSolution, concat_intersect
from .gci import GciLimits, SolveLimitExceeded, group_solutions, solve_group
from .verify import (
    AssignmentReport,
    CiReport,
    addable_strings,
    check_assignment,
    check_ci_properties,
    term_machine,
)
from .worklist import solve, solve_graph

__all__ = [
    "Assignment",
    "SolutionSet",
    "CiSolution",
    "concat_intersect",
    "GciLimits",
    "SolveLimitExceeded",
    "solve_group",
    "group_solutions",
    "solve",
    "solve_graph",
    "RegLangSolver",
    "AssignmentReport",
    "CiReport",
    "check_assignment",
    "check_ci_properties",
    "addable_strings",
    "term_machine",
]
