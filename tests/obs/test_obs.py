"""Unit tests for the observability layer (:mod:`repro.obs`), including
the paper's cost unit: NFA states visited (Sec. 3.5)."""

import io
import json

import pytest

from repro import obs
from repro.solver import concat_intersect
from repro.solver.worklist import solve
from repro.constraints import parse_problem

from ..helpers import machine


class TestNoopPath:
    """With no collector active every hook must be a silent no-op."""

    def test_hooks_do_nothing(self):
        assert obs.active_sinks() == ()
        obs.visit_states(17)
        obs.count_operation("product")
        assert obs.current_collector() is None

    def test_span_yields_shared_noop_handle(self):
        with obs.span("anything", size=3) as sp:
            sp.set("key", "value")  # discarded, not an error
        with obs.span("other") as other:
            assert other is sp  # one shared handle, no allocation per span

    def test_traced_function_runs_untraced(self):
        @obs.traced("label")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with obs.collect() as collector:
            with obs.span("outer"):
                with obs.span("inner_a"):
                    pass
                with obs.span("inner_b"):
                    pass
        (outer,) = collector.root.children
        assert outer.name == "outer"
        assert [child.name for child in outer.children] == ["inner_a", "inner_b"]
        assert outer.duration >= max(c.duration for c in outer.children)

    def test_states_attributed_to_innermost_span(self):
        with obs.collect() as collector:
            with obs.span("outer"):
                obs.visit_states(5)
                with obs.span("inner"):
                    obs.visit_states(7)
        (outer,) = collector.root.children
        (inner,) = outer.children
        assert outer.states_visited == 5
        assert inner.states_visited == 7
        assert outer.total_states_visited() == 12
        assert collector.states_visited == 12

    def test_attrs_at_open_and_via_handle(self):
        with obs.collect() as collector:
            with obs.span("op", states_in=4) as sp:
                sp.set("states_out", 9)
        (op,) = collector.root.children
        assert op.attrs == {"states_in": 4, "states_out": 9}

    def test_operations_recorded_per_span(self):
        with obs.collect() as collector:
            with obs.span("outer"):
                obs.count_operation("product")
                obs.count_operation("product")
                with obs.span("inner"):
                    obs.count_operation("concat")
        (outer,) = collector.root.children
        assert outer.operations == {"product": 2}
        assert outer.children[0].operations == {"concat": 1}
        assert collector.metrics.counter("op.product").value == 2

    def test_exception_closes_span_and_tags_error(self):
        with obs.collect() as collector:
            with pytest.raises(ValueError):
                with obs.span("risky"):
                    raise ValueError("boom")
            with obs.span("after"):
                pass
        risky, after = collector.root.children
        assert risky.attrs["error"] == "ValueError"
        assert after.name == "after"  # stack recovered to the root

    def test_find_and_render(self):
        with obs.collect() as collector:
            with obs.span("a"):
                with obs.span("b"):
                    pass
                with obs.span("b"):
                    pass
        assert len(collector.root.find("b")) == 2
        rendered = collector.render_trace()
        assert "a" in rendered and "b" in rendered
        assert rendered.splitlines()[0].startswith("trace")

    def test_traced_decorator_records_span(self):
        @obs.traced()
        def decorated():
            obs.visit_states(1)

        with obs.collect() as collector:
            decorated()
        (span_node,) = collector.root.children
        assert span_node.name == "decorated"
        assert span_node.states_visited == 1

    def test_span_cap_drops_but_still_aggregates(self):
        with obs.collect(max_recorded_spans=2) as collector:
            for _ in range(5):
                with obs.span("tick"):
                    pass
        assert len(collector.root.children) == 2
        assert collector.metrics.counter("obs.spans_dropped").value == 3
        assert collector.spans_dropped == 3
        assert collector.metrics.counter("span.tick").value == 5
        # Truncation is visible in the snapshot, not silent.
        snapshot = collector.to_dict()
        assert snapshot["truncated"] is True
        assert snapshot["spans_dropped"] == 3


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        registry.gauge("depth").set(3)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 5
        assert snap["gauges"]["depth"] == 3

    def test_histogram_bucketing(self):
        histogram = obs.Histogram(boundaries=(1, 10, 100))
        for value in (0.5, 1, 5, 10, 11, 1000):
            histogram.observe(value)
        snap = histogram.snapshot()
        # Boundaries are inclusive upper bounds; 1000 overflows to inf.
        assert snap["buckets"] == {"le_1": 2, "le_10": 2, "le_100": 1, "inf": 1}
        assert snap["count"] == 6
        assert snap["sum"] == pytest.approx(1027.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 1000

    def test_default_buckets_are_sorted(self):
        assert list(obs.SIZE_BUCKETS) == sorted(obs.SIZE_BUCKETS)
        assert list(obs.DURATION_BUCKETS) == sorted(obs.DURATION_BUCKETS)

    def test_collector_feeds_duration_and_size_histograms(self):
        with obs.collect() as collector:
            with obs.span("determinize", states_in=30) as sp:
                sp.set("states_out", 12)
        snap = collector.metrics.snapshot()
        assert snap["histograms"]["span_seconds.determinize"]["count"] == 1
        sizes = snap["histograms"]["automaton_states"]
        assert sizes["count"] == 2  # states_in and states_out
        assert sizes["max"] == 30


class TestJsonExport:
    def test_round_trip(self):
        with obs.collect() as collector:
            with obs.span("op", states_in=2) as sp:
                obs.visit_states(3)
                sp.set("states_out", 1)
        data = json.loads(collector.to_json())
        assert data["schema"] == "dprle.obs/2"
        assert data["truncated"] is False
        (op,) = data["trace"]["children"]
        assert op["name"] == "op"
        assert op["states_visited"] == 3
        assert op["attrs"] == {"states_in": 2, "states_out": 1}
        assert data["metrics"]["counters"]["states_visited"] == 3
        rebuilt = obs.Span.from_dict(data["trace"])
        assert rebuilt.to_dict() == data["trace"]

    def test_solver_trace_has_expected_spans(self):
        problem = parse_problem('var a, b;\na . b <= /ab/;')
        with obs.collect() as collector:
            solve(problem)
        trace = json.loads(collector.to_json())["trace"]
        top = obs.Span.from_dict(trace)
        assert top.find("solve"), "worklist solve span missing"
        assert top.find("ci"), "CI-group span missing"
        assert top.find("product"), "product span missing"


class TestScoping:
    def test_collect_scopes_stack(self):
        with obs.collect() as outer:
            with obs.collect() as inner:
                concat_intersect(machine("a"), machine("b"), machine("ab"))
            trailing = outer.states_visited
            assert inner.states_visited == trailing > 0
            # Work after the inner collector closes still hits the outer.
            concat_intersect(machine("a"), machine("b"), machine("ab"))
            assert outer.states_visited > trailing
            assert inner.states_visited == trailing

    def test_nested_collectors_both_record(self):
        with obs.collect() as outer:
            with obs.collect() as inner:
                with obs.span("shared"):
                    obs.visit_states(2)
        assert outer.states_visited == inner.states_visited == 2
        assert outer.root.find("shared") and inner.root.find("shared")

    def test_current_collector_is_innermost(self):
        with obs.collect() as outer:
            with obs.collect() as inner:
                assert obs.current_collector() is inner
            assert obs.current_collector() is outer
        assert obs.current_collector() is None


class TestCostModel:
    """States visited and operation counts, the paper's cost unit."""

    def test_counts_accumulate(self):
        with obs.collect() as cost:
            concat_intersect(machine("a*"), machine("b*"), machine("ab"))
        assert cost.states_visited > 0
        assert cost.operations.get("concat", 0) >= 1
        assert cost.operations.get("product", 0) >= 1

    def test_no_collector_outside_block(self):
        assert obs.current_collector() is None
        # Operations outside a collect block are no-ops, not errors.
        concat_intersect(machine("a"), machine("b"), machine("ab"))

    def test_nested_scopes_propagate(self):
        # Inner work is part of the outer scope's cost, so it must
        # propagate to all active ancestors.
        with obs.collect() as outer:
            machine("a")  # helper compiles via ops: counts here
            before = outer.states_visited
            with obs.collect() as inner:
                concat_intersect(machine("a*"), machine("b"), machine("a*b"))
            assert inner.states_visited > 0
            assert outer.states_visited == before + inner.states_visited
            assert all(
                outer.operations.get(op, 0) >= count
                for op, count in inner.operations.items()
            )
        assert obs.current_collector() is None

    def test_current_returns_innermost(self):
        # A journal stacked on top is a sink but not a collector, and an
        # inner scope left by an exception hands the cost back to the outer.
        with obs.collect() as outer:
            with obs.journal_to(io.StringIO()):
                assert obs.current_collector() is outer
                with pytest.raises(RuntimeError):
                    with obs.collect() as inner:
                        assert obs.current_collector() is inner
                        raise RuntimeError("unwind")
                assert obs.current_collector() is outer
            before = inner.states_visited
            concat_intersect(machine("a"), machine("b"), machine("ab"))
            assert inner.states_visited == before
            assert outer.states_visited > before
        assert obs.current_collector() is None

    def test_bigger_inputs_cost_more(self):
        with obs.collect() as small:
            concat_intersect(machine("a"), machine("b"), machine("ab"))
        with obs.collect() as big:
            concat_intersect(
                machine("(a|b){0,8}"), machine("(b|c){0,8}"), machine("(a|b|c){0,12}")
            )
        assert big.states_visited > small.states_visited

    def test_solve_records_operations(self):
        problem = parse_problem('var v;\nv <= /a+/;\nv <= /(aa)+/;')
        with obs.collect() as cost:
            solve(problem)
        assert cost.operations.get("product", 0) >= 1

    def test_operations_mirror_op_counters(self):
        with obs.collect() as collector:
            concat_intersect(machine("a"), machine("b"), machine("ab"))
        ops_total = {
            name[len("op."):]: value
            for name, value in collector.metrics.snapshot()["counters"].items()
            if name.startswith("op.")
        }
        assert collector.operations == ops_total

    def test_repr_mentions_counts(self):
        with obs.collect() as cost:
            machine("ab")
        assert "states_visited" in repr(cost)
