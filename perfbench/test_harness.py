"""Self-tests of the benchmark harness (a few seconds).

Run with ``PYTHONPATH=src python -m pytest perfbench/test_harness.py -q``.
They cover the statistics, the span-tree arithmetic, the rejection of a
truncated trace, the answer checks (a corrupted answer must be counted),
and that the runner emits exactly the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import _checks  # noqa: E402
import _layers  # noqa: E402
import _measure  # noqa: E402
import _server  # noqa: E402
import _workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- statistics ---------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(400, 97.5), (200, 95.0), (1000, 99.0), (11, 100 / 11)])
def test_supported_tail_leaves_ten_samples_beyond(n: int, expected: float) -> None:
    pct = _measure.supported_tail(n)
    assert pct == pytest.approx(expected)
    values = list(range(n))
    cut = _measure.percentile(values, pct)
    assert sum(1 for value in values if value > cut) >= 10
    assert sum(1 for value in values if value >= cut) <= 11


def test_no_tail_without_enough_samples() -> None:
    assert _measure.supported_tail(10) is None
    assert _measure.supported_tail(3) is None


def test_geomean_and_iqr() -> None:
    assert _measure.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert _measure.geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
    values = [float(v) for v in range(1, 10)]
    # statistics.quantiles' default (exclusive) method: 2.5 and 7.5.
    assert _measure.quartiles(values) == (2.5, 7.5)
    summary = _measure.summarize(values)
    assert summary["n"] == 9 and summary["median"] == 5.0 and summary["iqr"] == 5.0
    assert _measure.quartiles([4.0]) == (4.0, 4.0)


def test_percentile_interpolates() -> None:
    assert _measure.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert _measure.percentile([0.0, 10.0], 95) == pytest.approx(9.5)


# -- span arithmetic ------------------------------------------------------------


@dataclass
class FakeSpan:
    name: str
    cpu: float
    children: list["FakeSpan"] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)


def _synthetic_tree() -> FakeSpan:
    inclusion = FakeSpan("inclusion_check", 1.5, [FakeSpan("determinize", 1.0)])
    combination = FakeSpan(
        "gci_combination", 2.3,
        [FakeSpan("gci_maximize", 2.0, [inclusion])], {"viable": True},
    )
    prepare = FakeSpan("ci", 1.5, [FakeSpan("gci_factor", 1.0, [FakeSpan("product", 0.8)])])
    solve = FakeSpan(
        "solve", 4.5,
        [
            FakeSpan("basic_constraints", 0.5, [FakeSpan("product", 0.3)]),
            FakeSpan("worklist_iteration", 3.9, [prepare, combination]),
        ],
        {"iterations": 2},
    )
    lower = FakeSpan(
        _layers.LOWER, 3.0, [FakeSpan("complement", 1.0, [FakeSpan("determinize", 0.5)])]
    )
    sink = FakeSpan(
        "sink_query", 4.8, [FakeSpan(_layers.DEPGRAPH, 0.2), solve], {"num_constraints": 7}
    )
    analyze = FakeSpan(
        "analyze", 9.0, [FakeSpan(_layers.PARSE, 1.0), lower, sink], {"blocks": 40}
    )
    query = FakeSpan(_layers.QUERY, 10.0, [analyze])
    return FakeSpan("trace", 0.0, [query])


def test_self_cpu_on_a_synthetic_tree() -> None:
    raw = _layers.empty_raw()
    _layers.add_tree(_synthetic_tree(), raw)
    metrics = _layers.layer_metrics(raw)
    expected = {
        "front.parse.cpu_s": 1.0,
        "front.cpu_s": 4.0,
        "constraints.depgraph.cpu_s": 0.2,
        "solver.solve.cpu_s": 4.5,
        "solver.basic.cpu_s": 0.5,
        "gci.prepare.cpu_s": 1.5,
        "gci.factor.cpu_s": 1.0,
        "gci.maximize.cpu_s": 2.0,
        "gci.slice.cpu_s": 0.3,
        "automata.product.self_cpu_s": 1.1,
        "automata.determinize.self_cpu_s": 1.5,
        "automata.inclusion_check.self_cpu_s": 0.5,
        "automata.complement.cpu_share": 0.05,
        "automata.hopcroft.cpu_share": 0.0,
    }
    for name, value in expected.items():
        assert metrics[name] == pytest.approx(value), name
    assert metrics["automata.product.calls"] == 2
    assert metrics["automata.determinize.calls"] == 2
    assert metrics["gci.solutions"] == 1
    assert metrics["solver.iterations"] == 2
    assert metrics["php.blocks"] == 40 and metrics["php.constraints"] == 7
    assert raw["traced_cpu_s"] == pytest.approx(10.0)
    # Everything but the harness's own query span is attributed.
    assert raw["attributed_cpu_s"] == pytest.approx(9.0)


def test_truncated_trace_is_rejected() -> None:
    from repro import obs

    with obs.collect(max_recorded_spans=1) as collector:
        with obs.span("solve"):
            with obs.span("ci"):
                pass
    with pytest.raises(_layers.TruncatedTrace):
        _layers.add_collector(collector, _layers.empty_raw())


def test_span_cap_holds_the_widest_query() -> None:
    query = next(q for q in _workloads.dprle_queries() if q.name == "wider.dprle")
    raw = _layers.empty_raw()
    with _layers.instrumented():
        with _layers.traced_query(raw):
            query.run()
    assert raw["gci.combinations_enumerated"] == 3249
    assert raw["attributed_cpu_s"] > 0.9 * raw["traced_cpu_s"]


# -- answers ----------------------------------------------------------------------


def _good_fig12_doc() -> dict:
    return {
        "num_blocks": 58,
        "vulnerable": True,
        "findings": [
            {"vulnerable": True, "num_constraints": 29,
             "exploit_inputs": {"post_edit_id": "'0", "get_f0_0": ""}},
        ],
    }


def test_a_corrupted_exploit_is_counted() -> None:
    expected = _checks.load("fig12.json")
    tally = _checks.Tally()
    good = _good_fig12_doc()
    tally.record("good", _checks.check_fig12("eve/edit", expected, "", good))
    bad = _good_fig12_doc()
    bad["findings"][0]["exploit_inputs"]["post_edit_id"] = "00"
    tally.record("no quote", _checks.check_fig12("eve/edit", expected, "", bad))
    far = _good_fig12_doc()
    far["num_blocks"] = 80
    tally.record("wrong |FG|", _checks.check_fig12("eve/edit", expected, "", far))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_a_corrupted_witness_is_counted() -> None:
    entry = _checks.load("dprle.json")["files"]["wide.dprle"]
    good = {"satisfiable": True, "count": 8,
            "assignments": [{"va": {"witness": "ab"}, "vb": {"witness": "abaab"},
                             "vc": {"witness": "ba"}}] * 8}
    assert _checks.check_solutions(entry, good) == []
    bad = json.loads(json.dumps(good))
    bad["assignments"][3]["vb"]["witness"] = "abc"
    tally = _checks.Tally()
    tally.record("wide", _checks.check_solutions(entry, bad))
    assert tally.failed == 1
    assert "solution 4" in tally.problems[0]


def test_secure_pad_is_checked_against_the_source() -> None:
    style = _checks.load("fig12.json")["styles"]["secure"]
    source = "preg_match('/^(.{2})*$/', $pad)\npreg_match('/^(.{3})*$/', $pad)"
    doc = {"vulnerable": True, "findings": [{"vulnerable": True, "exploit_inputs": {
        "post_secure_id": "0", "post_secure_pad": "\x00" * 5 + "'"}}]}
    assert _checks.check_exploit("secure", style, source, doc) == []
    doc["findings"][0]["exploit_inputs"]["post_secure_pad"] = "\x00" * 3 + "'"
    assert _checks.check_exploit("secure", style, source, doc)


# -- emitted metrics ------------------------------------------------------------------


def _names(kind: str) -> set[str]:
    return {metric["name"] for metric in SPEC[kind]}


def test_end_to_end_names_match_the_spec() -> None:
    times = {
        "a": _measure.QueryTimes("a", "cold", [_measure.Sample(0.1, 0.11)] * 3),
        "b": _measure.QueryTimes("b", "cold", [_measure.Sample(0.2, 0.21)] * 3),
    }
    passes = [_workloads.PassResult(0.33, 0.3)] * 3
    emitted = run.emit(_workloads.end_to_end(times, passes, 0.5), SPEC["end_to_end"])
    assert set(emitted) == _names("end_to_end")
    request = _server.Request("k", "/solve", b"{}", lambda doc: [])
    outcomes = [
        _server.Outcome(request, 0.01 * (i + 1), 200, b"{}")
        for i in range(len(_server.ANALYSIS_SLOTS) + _server.SOLVE_REPEATS * len(_server.WIDE_SIZES))
    ]
    empty = {"metrics": {"counters": {}, "histograms": {}}}
    replicas = [
        _server.Replica(outcomes, makespan, 2.5, 100.0, _server.StatsDelta(empty, empty))
        for makespan in (3.0, 9.0, 4.0)
    ]
    server = _server.end_to_end(replicas, 0.9)
    assert server["wall_s"] == 4.0  # the median replica
    emitted = run.emit(server, SPEC["end_to_end"])
    assert set(emitted) == _names("end_to_end")
    # Three replicas of the stream are what puts ten requests beyond p97.5.
    with pytest.raises(ValueError):
        _server.end_to_end(replicas[:2], 0.9)
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert all(emitted[name]["unit"] == units[name] for name in emitted)


def test_per_layer_names_match_the_spec() -> None:
    raw = _layers.empty_raw()
    raw["traced_cpu_s"] = 1.0
    layers = _layers.layer_metrics(raw)
    in_process = _layers.assemble(layers, _workloads.no_server(5.0), 1.1, 0.99)
    assert set(run.emit(in_process, SPEC["per_layer"])) == _names("per_layer")
    stats = {"metrics": {"counters": {}, "histograms": {
        "server.queue_wait_seconds": {"sum": 1.0, "count": 4},
        "server.request_seconds": {"sum": 2.0, "count": 4},
        "server.batch_size": {"sum": 4.0, "count": 2}}}}
    empty = {"metrics": {"counters": {}, "histograms": {}}}
    request = _server.Request("k", "/solve", b"{}", lambda doc: [])
    outcomes = [_server.Outcome(request, 0.6, 200, b"{}")] * 4
    server = _server.server_layers(_server.StatsDelta(empty, stats), outcomes)
    daemon = _layers.assemble(layers, server, 1.1, 0.8)
    assert set(run.emit(daemon, SPEC["per_layer"])) == _names("per_layer")
    assert server["server.service.mean_ms"] == pytest.approx(250.0)
    assert server["server.queue_wait.share"] == pytest.approx(1.0 / 2.4)


def test_emit_rejects_missing_extra_and_non_finite() -> None:
    values = {metric["name"]: 1.0 for metric in SPEC["end_to_end"]}
    run.emit(values, SPEC["end_to_end"])
    with pytest.raises(ValueError):
        run.emit({**values, "extra": 1.0}, SPEC["end_to_end"])
    with pytest.raises(ValueError):
        run.emit({k: v for k, v in values.items() if k != "setup_s"}, SPEC["end_to_end"])
    with pytest.raises(ValueError):
        run.emit({**values, "setup_s": float("nan")}, SPEC["end_to_end"])


def test_spec_is_well_formed() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert len(SPEC["per_layer"]) <= 128
