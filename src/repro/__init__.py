r"""dprle-py: a decision procedure for subset constraints over regular languages.

A from-scratch reproduction of Hooimeijer & Weimer, PLDI 2009
("A Decision Procedure for Subset Constraints over Regular Languages").

Quick start::

    from repro import RegLangSolver

    s = RegLangSolver()
    v1 = s.var("v1")
    s.require_match(v1, r"/[\d]+$/")
    s.require(s.literal("nid_").concat(v1), s.match_pattern("unsafe", "'"))
    result = s.solve()
    print(result.first.witness("v1"))   # e.g. "'0"

Package map:

* :mod:`repro.automata` -- symbolic epsilon-NFAs/DFAs and their algebra.
* :mod:`repro.regex` -- regex parsing, compilation, pretty-printing.
* :mod:`repro.constraints` -- the RMA constraint model, DSL, dep graphs.
* :mod:`repro.solver` -- the decision procedure itself.
* :mod:`repro.php` -- the mini-PHP front end used by the evaluation.
* :mod:`repro.analysis` -- SQL-injection test-input generation.
"""

from .constraints import Const, Problem, Subset, Var, parse_problem
from .solver import (
    Assignment,
    GciLimits,
    RegLangSolver,
    SolutionSet,
    SolveLimitExceeded,
    concat_intersect,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "RegLangSolver",
    "solve",
    "concat_intersect",
    "Assignment",
    "SolutionSet",
    "GciLimits",
    "SolveLimitExceeded",
    "Var",
    "Const",
    "Subset",
    "Problem",
    "parse_problem",
    "__version__",
]
