"""Prometheus / Chrome-trace exporters and the human report."""

import json

import pytest

from repro import obs
from repro.constraints.dsl import parse_problem
from repro.solver.worklist import solve


def _snapshot() -> dict:
    with obs.collect() as collector:
        with obs.span("solve"):
            obs.visit_states(5)
            with obs.span("determinize", states_in=8) as sp:
                obs.count_operation("product")
                sp.set("states_out", 3)
        obs.set_gauge("cache.entries", 12)
    return collector.to_dict()


class TestPrometheus:
    def test_counters_get_namespace_and_total_suffix(self):
        text = obs.to_prometheus(_snapshot())
        assert "# TYPE dprle_states_visited_total counter" in text
        assert "dprle_states_visited_total 5" in text
        assert "dprle_op_product_total 1" in text

    def test_gauges_render_plain(self):
        text = obs.to_prometheus(_snapshot())
        assert "# TYPE dprle_cache_entries gauge" in text
        assert "dprle_cache_entries 12" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("lat", (1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            hist.observe(value)
        text = obs.to_prometheus({"metrics": registry.snapshot()})
        assert 'dprle_lat_bucket{le="1"} 2' in text
        assert 'dprle_lat_bucket{le="10"} 3' in text
        assert 'dprle_lat_bucket{le="+Inf"} 4' in text
        assert "dprle_lat_count 4" in text
        assert "dprle_lat_sum 106.2" in text

    def test_names_are_sanitized(self):
        text = obs.to_prometheus(_snapshot())
        # Metric names on sample lines contain no dots.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split(None, 1)[0].split("{", 1)[0]
            assert "." not in name
            assert name.startswith("dprle_")

    def test_accepts_bare_registry_snapshot(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits").inc(2)
        assert "dprle_hits_total 2" in obs.to_prometheus(registry.snapshot())


class TestChromeTrace:
    def test_round_trips_through_schema_validation(self):
        doc = obs.to_chrome_trace(_snapshot())
        rehydrated = json.loads(json.dumps(doc))
        assert obs.validate_chrome_trace(rehydrated) is True

    def test_spans_become_complete_events(self):
        doc = obs.to_chrome_trace(_snapshot())
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "solve" in by_name and "determinize" in by_name
        det = by_name["determinize"]
        assert det["dur"] >= 0
        assert det["ts"] >= by_name["solve"]["ts"]
        assert det["args"]["states_in"] == 8
        assert det["args"]["op.product"] == 1

    def test_worker_subtrees_get_their_own_tid(self):
        with obs.collect() as child:
            with obs.span("inner_work"):
                pass
        child_snapshot = child.to_dict()
        with obs.collect() as parent:
            with obs.span("enumeration"):
                obs.absorb(child_snapshot, label="worker")
                obs.absorb(child_snapshot, label="worker")
        doc = obs.to_chrome_trace(parent.to_dict())
        obs.validate_chrome_trace(doc)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        main_tids = {e["tid"] for e in events if e["name"] == "enumeration"}
        worker_tids = {e["tid"] for e in events if e["name"] == "worker"}
        assert main_tids == {0}
        assert len(worker_tids) == 2  # one track per grafted worker
        assert 0 not in worker_tids
        # Grafted children follow their worker's track and are re-based
        # into the parent's timeline (never negative).
        inner = [e for e in events if e["name"] == "inner_work"]
        assert {e["tid"] for e in inner} == worker_tids
        assert all(e["ts"] >= 0 for e in events)
        # thread_name metadata names each track.
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        named = {e["tid"]: e["args"]["name"] for e in meta}
        assert named[0] == "main"
        for tid in worker_tids:
            assert named[tid] == "worker"

    def test_real_solve_trace_validates(self):
        problem = parse_problem("var a, b;\na . b <= /ab/;")
        with obs.collect() as collector:
            solve(problem)
        doc = obs.to_chrome_trace(collector.to_dict())
        assert obs.validate_chrome_trace(doc) is True
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"solve", "ci", "gci_combination"} <= names

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace([])
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "a", "ph": "X", "pid": 0, "tid": 0,
                         "ts": -1.0, "dur": 0.0}
                    ]
                }
            )
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "a", "ph": "Q", "pid": 0, "tid": 0}
                    ]
                }
            )


class TestReport:
    def test_obs_snapshot_report(self):
        text = obs.render_report(_snapshot())
        assert "schema: dprle.obs/2" in text
        assert "time by span" in text
        assert "determinize" in text
        assert "states_visited" in text
        assert "cache.entries" in text

    def test_truncated_snapshot_is_flagged(self):
        with obs.collect(max_recorded_spans=1) as collector:
            for _ in range(3):
                with obs.span("tick"):
                    pass
        text = obs.render_report(collector.to_dict())
        assert "truncated" in text
