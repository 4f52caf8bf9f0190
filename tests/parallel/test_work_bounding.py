"""Work-bounded enumeration: the first-solution cap and prefix pruning.

``max_solutions=1`` bounds the *work* the stage-5 enumeration does, not
just the output length — ``gci.combinations_skipped`` counts what was
never walked — and the depth-first walk settles every combination
below a dead prefix at once (``gci.combinations_pruned``).
"""

import pathlib

from repro import obs, parallel
from repro.automata.equivalence import equivalent
from repro.constraints import parse_problem
from repro.constraints.depgraph import build_graph
from repro.solver import solve
from repro.solver.gci import GciLimits, group_solutions

from .. import oracle
from ..helpers import raw_walk

DATA = pathlib.Path(__file__).parent.parent / "data"


def _counters(collector) -> dict:
    return collector.metrics.snapshot()["counters"]


def _fig9():
    return parse_problem((DATA / "fig9.dprle").read_text())


class TestStreamingCap:
    def test_fig9_max_solutions_one_skips_combinations(self):
        """The acceptance-criterion case: fig9 with max_solutions=1
        must not walk the whole 4-combination space."""
        with obs.collect() as collector:
            result = solve(_fig9(), max_solutions=1)
        counters = _counters(collector)
        assert len(result) == 1
        assert counters["gci.combinations_total"] == 4
        assert counters["gci.combinations_skipped"] > 0
        assert (
            counters["gci.combinations_enumerated"]
            + counters["gci.combinations_skipped"]
            == counters["gci.combinations_total"]
        )

    def test_fig9_max_solutions_one_across_a_pool(self, monkeypatch):
        """Across a pool the cap is best-effort (chunks already in
        flight complete, docs/PARALLELISM.md), so only the answer count
        and the ledger identity are exact."""
        monkeypatch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)
        with obs.collect() as collector:
            result = solve(
                _fig9(), max_solutions=1, limits=GciLimits(workers=2)
            )
        counters = _counters(collector)
        assert len(result) == 1
        assert (
            counters["gci.combinations_enumerated"]
            + counters.get("gci.combinations_skipped", 0)
            == counters["gci.combinations_total"]
        )

    def test_limits_cap_streams_too(self):
        with obs.collect() as collector:
            solutions = list(
                group_solutions(*_fig9_group(), GciLimits(max_solutions=1))
            )
        assert len(solutions) == 1
        assert _counters(collector)["gci.combinations_skipped"] > 0

    def test_uncapped_walks_everything(self):
        with obs.collect() as collector:
            result = solve(_fig9())
        counters = _counters(collector)
        assert len(result) == 4
        assert counters["gci.combinations_enumerated"] == 4
        assert "gci.combinations_skipped" not in counters


SHARED_MIDDLE = """
var va, vb, vc;
va <= /a+/;
vb <= /(a|b)+/;
vc <= /b+/;
va . vb <= /a{1,3}b{1,3}/;
vb . vc <= /a{1,3}b{1,3}/;
"""


class TestPruning:
    def test_pruning_cuts_dead_prefixes(self):
        """A shared variable squeezed between an ``a``-only and a
        ``b``-only neighbour has an empty intersection for most bridge
        choices; the walk settles those combinations by cutting the
        prefix, and the ledger still sums to the whole space."""
        with obs.collect() as collector:
            result = solve(parse_problem(SHARED_MIDDLE))
        counters = _counters(collector)
        assert len(result) == 4
        assert counters["gci.combinations_total"] == 15
        assert counters["gci.combinations_enumerated"] == 15
        assert 0 < counters["gci.combinations_pruned"] < 15

    def test_pruned_solutions_match_reference(self):
        """Pruning only cuts non-viable combinations: the walk yields
        the same ``(index, languages)`` stream as the reference product
        walk, which slices every combination."""
        graph, _ = build_graph(parse_problem(SHARED_MIDDLE))
        (group,) = graph.ci_groups()
        walked = list(raw_walk(graph, group)[1])
        reference = list(oracle.product_walk(raw_walk(graph, group)[0]))
        assert [i for i, _ in walked] == [i for i, _ in reference]
        for (_, a), (_, b) in zip(walked, reference):
            assert all(equivalent(a[node], b[node]) for node in b)


def _fig9_group():
    problem = parse_problem((DATA / "fig9.dprle").read_text())
    graph, _ = build_graph(problem)
    (group,) = graph.ci_groups()
    return graph, group
