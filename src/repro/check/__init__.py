"""Pre-solve static analysis for RMA constraint systems.

The checker runs over a parsed problem's dependency graph before any
subset construction: structural lints, two sound abstract domains
(length intervals and character footprints), and a combination-space
cost estimator.  The solver never consults these domains; they only
inform ``dprle check``.  See ``docs/DIAGNOSTICS.md`` for the diagnostic
code table and the soundness argument behind D020/D021.
"""

from .cost import GroupEstimate, estimate_group, estimate_groups
from .diagnostics import CODES, SCHEMA, CheckReport, Diagnostic, Severity
from .domains import (
    AbstractLang,
    GraphAbstraction,
    LengthInterval,
    abstract_of,
    evaluate_graph,
)
from .passes import CheckLimits, check_problem, report_from_error

__all__ = [
    "CODES",
    "SCHEMA",
    "AbstractLang",
    "CheckLimits",
    "CheckReport",
    "Diagnostic",
    "GraphAbstraction",
    "GroupEstimate",
    "LengthInterval",
    "Severity",
    "abstract_of",
    "check_problem",
    "estimate_group",
    "estimate_groups",
    "evaluate_graph",
    "report_from_error",
]
