"""Property tests for the pre-solve cost estimator vs stage-5 reality.

``repro.check.cost.estimate_group`` predicts a CI-group's combination
count from machine sizes alone, before anything is determinized.  The
prediction must be a *sound ceiling* on the ``gci.combinations_total``
the solve later reports — and stage-5's prefix pruning must never break
that: it settles dead subtrees without reaching their leaves, never
changes what ``combinations_total`` accounts for, so the bound and the
ledger identity ``total = enumerated + skipped`` (with ``pruned ≤
enumerated``) both hold.
"""

from hypothesis import given, settings

from repro import obs
from repro.cache import LangCache
from repro.check.cost import estimate_groups
from repro.constraints.depgraph import build_graph
from repro.constraints.terms import Const, Problem, Subset, Var
from repro.solver import solve
from repro.solver.gci import GciLimits

from ..helpers import AB
from .strategies import machines

SETTINGS = settings(max_examples=15, deadline=None)

LEDGER = ("enumerated", "skipped")


def _shared_chain_problem(c1, c2, c3) -> Problem:
    """x·y ⊆ c1, y·z ⊆ c2 with unary bounds: the shared variable ``y``
    makes prefix pruning bite."""
    return Problem(
        [
            Subset(Var("x"), Const("c3", c3)),
            Subset(Var("y"), Const("c3", c3)),
            Subset(Var("z"), Const("c3", c3)),
            Subset(Var("x").concat(Var("y")), Const("c1", c1)),
            Subset(Var("y").concat(Var("z")), Const("c2", c2)),
        ],
        alphabet=AB,
    )


@SETTINGS
@given(machines(max_depth=2), machines(max_depth=2), machines(max_depth=2))
def test_estimate_bounds_total_under_pruning(c1, c2, c3):
    problem = _shared_chain_problem(c1, c2, c3)
    graph, _ = build_graph(problem)
    predicted = sum(e.estimated_combinations for e in estimate_groups(graph))

    with LangCache().activate(), obs.collect() as collector:
        solve(problem, limits=GciLimits(max_combinations=100_000))
    counters = collector.metrics.snapshot()["counters"]
    total = counters.get("gci.combinations_total", 0)
    # The static prediction is an upper bound on the accounted space.
    assert total <= predicted, (total, predicted)
    # Pruning settles combinations, it does not drop them from the ledger.
    parts = sum(counters.get(f"gci.combinations_{part}", 0) for part in LEDGER)
    assert total == parts, counters
    assert counters.get("gci.combinations_pruned", 0) <= counters.get(
        "gci.combinations_enumerated", 0
    ), counters
