"""Folding a child collector's snapshot into the parent's sinks.

``obs.absorb`` is the parent half of the worker-telemetry protocol
(repro.parallel): counters add, gauges max, histograms merge
bucketwise, and the child trace is grafted under the current span.
"""

import pytest

from repro import obs


def _child_snapshot() -> dict:
    with obs.collect() as child:
        with obs.span("inner_work", detail=1):
            obs.visit_states(7)
            obs.count_operation("product")
            obs.count_operation("product")
        obs.increment_metric("cache.hit.intersect", 3)
        child.metrics.gauge("cache.entries").set(5)
        child.metrics.histogram("span.duration.product").observe(0.25)
    return child.to_dict()


def test_counters_and_states_merge():
    snapshot = _child_snapshot()
    with obs.collect() as parent:
        obs.visit_states(2)
        obs.absorb(snapshot)
    counters = parent.metrics.snapshot()["counters"]
    assert parent.states_visited == 9  # 2 local + 7 absorbed
    assert counters["cache.hit.intersect"] == 3
    assert counters["op.product"] == 2


def test_absorb_is_cumulative():
    snapshot = _child_snapshot()
    with obs.collect() as parent:
        obs.absorb(snapshot)
        obs.absorb(snapshot)
    counters = parent.metrics.snapshot()["counters"]
    assert counters["cache.hit.intersect"] == 6
    assert parent.states_visited == 14


def test_gauges_take_max_and_histograms_merge():
    snapshot = _child_snapshot()
    with obs.collect() as parent:
        parent.metrics.gauge("cache.entries").set(3)
        obs.absorb(snapshot)
        obs.absorb(snapshot)
    registry = parent.metrics.snapshot()
    assert registry["gauges"]["cache.entries"] == 5  # max, not sum
    hist = registry["histograms"]["span.duration.product"]
    assert hist["count"] == 2


def test_trace_grafted_under_current_span():
    snapshot = _child_snapshot()
    with obs.collect() as parent:
        with obs.span("enumeration"):
            obs.absorb(snapshot, label="worker")
    (enumeration,) = parent.root.find("enumeration")
    (worker,) = [c for c in enumeration.children if c.name == "worker"]
    assert worker.find("inner_work")


def test_collector_absorbs_states_and_operations():
    snapshot = _child_snapshot()
    with obs.collect() as cost:
        obs.absorb(snapshot)
    assert cost.states_visited == 7
    assert cost.operations["product"] == 2


def test_journal_takes_no_snapshot(tmp_path):
    """A journal streams its own events; absorbing a worker snapshot
    while only a journal is active must not fail."""
    snapshot = _child_snapshot()
    with obs.journal_to(tmp_path / "j.jsonl"):
        obs.absorb(snapshot)


def test_absorb_without_sinks_is_noop():
    obs.absorb(_child_snapshot())  # must not raise


def test_deeply_nested_worker_tree_counts_states_once():
    """States attributed at three nesting depths absorb exactly once.

    The collector attributes states to the *innermost* open span, so a
    deep tree's per-span numbers are disjoint; absorb must add the
    child's counter total once, never re-derive it by walking the tree
    (which would multiply states through ancestor propagation).
    """
    with obs.collect() as child:
        with obs.span("outer"):
            obs.visit_states(1)
            with obs.span("mid"):
                obs.visit_states(2)
                with obs.span("leaf"):
                    obs.visit_states(4)
    snapshot = child.to_dict()
    assert child.states_visited == 7

    with obs.collect() as parent:
        obs.absorb(snapshot, label="worker")
    assert parent.states_visited == 7  # not 1 + 3 + 7

    (worker,) = parent.root.find("worker")
    (leaf,) = worker.find("leaf")
    (mid,) = worker.find("mid")
    (outer,) = worker.find("outer")
    # Per-span attribution survives the graft verbatim.
    assert (outer.states_visited, mid.states_visited, leaf.states_visited) == (
        1, 2, 4,
    )


def test_nested_absorbed_snapshots_graft_whole_subtree():
    """A snapshot that itself contains an absorbed worker re-grafts
    intact, and its counters still merge exactly once per level."""
    with obs.collect() as inner:
        with obs.span("leaf_work"):
            obs.visit_states(3)
    inner_snapshot = inner.to_dict()

    with obs.collect() as mid:
        with obs.span("chunk"):
            obs.absorb(inner_snapshot, label="worker")
    mid_snapshot = mid.to_dict()

    with obs.collect() as parent:
        obs.absorb(mid_snapshot, label="worker")
    assert parent.states_visited == 3

    workers = parent.root.find("worker")
    assert len(workers) == 2  # the outer graft and the one nested in it
    (chunk,) = workers[0].find("chunk")
    assert chunk.find("leaf_work")


def test_same_boundary_histograms_merge_bucketwise():
    def worker_snapshot() -> dict:
        with obs.collect() as child:
            hist = child.metrics.histogram("lat", (1.0, 10.0))
            hist.observe(0.5)
            hist.observe(50.0)
        return child.to_dict()

    with obs.collect() as parent:
        obs.absorb(worker_snapshot(), label="w1")
        obs.absorb(worker_snapshot(), label="w2")
    merged = parent.metrics.snapshot()["histograms"]["lat"]
    assert merged["buckets"] == {"le_1": 2, "le_10": 0, "inf": 2}
    assert merged["count"] == 4
    assert merged["sum"] == pytest.approx(101.0)


def test_mixed_boundary_histograms_preserve_totals():
    """Merging into an instrument with different buckets keeps exact
    count/sum/min/max; the foreign observations land in overflow (the
    documented degradation, asserted here so it stays deliberate)."""
    with obs.collect() as child:
        hist = child.metrics.histogram("queue", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
    snapshot = child.to_dict()

    with obs.collect() as parent:
        parent.metrics.histogram("queue", obs.DURATION_BUCKETS).observe(0.002)
        obs.absorb(snapshot)
    merged = parent.metrics.snapshot()["histograms"]["queue"]
    assert merged["count"] == 3
    assert merged["sum"] == pytest.approx(5.502)
    assert merged["min"] == pytest.approx(0.002)
    assert merged["max"] == pytest.approx(5.0)
    assert merged["buckets"]["inf"] == 2  # foreign-boundary spillover


def test_span_budget_respected():
    snapshot = _child_snapshot()
    with obs.collect(max_recorded_spans=1) as parent:
        obs.absorb(snapshot)
    counters = parent.metrics.snapshot()["counters"]
    # The graft (root + inner_work = 2 spans) exceeds the budget of 1:
    # dropped and accounted, never partially attached.
    assert counters.get("obs.spans_dropped", 0) >= 1
    assert not parent.root.find("worker")
