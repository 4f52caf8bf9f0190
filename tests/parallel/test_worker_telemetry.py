"""Worker telemetry must fold back into the parent's sinks.

Each worker task runs under its own collector and ships the snapshot
home; the parent absorbs it into every active sink, so ``--stats-json``
totals, nested collectors, and span traces account for work
no matter which process did it.
"""

import json
import pathlib

import pytest

from repro import obs, parallel
from repro.constraints import parse_problem
from repro.solver import solve
from repro.solver.gci import GciLimits
from repro.tools.cli import main

DATA = pathlib.Path(__file__).parent.parent / "data"


@pytest.fixture
def dispatch_every_group(monkeypatch):
    monkeypatch.setattr(parallel, "MIN_PARALLEL_COMBINATIONS", 1)


def _wide():
    return parse_problem((DATA / "wide.dprle").read_text())


def _limits(workers):
    return GciLimits(workers=workers)


@pytest.mark.usefixtures("dispatch_every_group")
def test_collector_receives_worker_spans_and_counters():
    with obs.collect() as collector:
        solve(_wide(), limits=_limits(2))
    counters = collector.metrics.snapshot()["counters"]
    # Slicing/intersection states are visited in the workers; the
    # parent's total must include them.
    assert collector.states_visited > 0
    assert counters.get("gci.combinations_enumerated", 0) == 225
    # Worker traces are grafted under the parent trace by label.
    assert collector.root.find("worker")


@pytest.mark.usefixtures("dispatch_every_group")
def test_parallel_introspection_metrics_present():
    """dprle.obs/2 deep introspection: queue-wait and chunk histograms,
    per-worker busy counters, and pool gauges ride the snapshots home."""
    with obs.collect() as collector:
        solve(_wide(), limits=_limits(2))
    registry = collector.metrics.snapshot()
    histograms = registry["histograms"]

    chunks = histograms.get("parallel.chunk_seconds")
    assert chunks is not None and chunks["count"] >= 1
    assert chunks["sum"] > 0

    sizes = histograms.get("parallel.chunk_combinations")
    assert sizes is not None
    # Every combination was settled by exactly one chunk.
    assert sizes["sum"] == registry["counters"]["gci.combinations_enumerated"]

    waits = histograms.get("parallel.queue_wait_seconds")
    assert waits is not None and waits["count"] == chunks["count"]
    assert waits["min"] >= 0

    busy = {
        name: value
        for name, value in registry["counters"].items()
        if name.startswith("parallel.worker.") and name.endswith(".busy_ms")
    }
    assert busy, "per-worker busy counters missing"

    gauges = registry["gauges"]
    assert 0 < gauges.get("parallel.utilization", 0) <= 1.0
    assert gauges.get("parallel.chunk_skew", 0) >= 1.0
    # Heartbeat progress reached 100% of the combination space.
    assert (
        gauges.get("progress.gci_enumeration.done")
        == gauges.get("progress.gci_enumeration.total")
        == registry["counters"]["gci.combinations_enumerated"]
    )


@pytest.mark.usefixtures("dispatch_every_group")
def test_collector_cost_includes_worker_work():
    with obs.collect() as cost:
        solve(_wide(), limits=_limits(2))
    # The enumeration's slicing intersections run only in the workers
    # for this fixture; seeing them in the collector proves the worker
    # snapshots were absorbed.  (No serial-vs-parallel magnitude
    # comparison: workers keep process-global warm caches, so a
    # parallel run legitimately does far less raw automaton work.)
    assert cost.states_visited > 0
    assert cost.operations.get("intersect", 0) > 0


def test_cli_stats_json_totals_include_worker_metrics(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code = main(
        [
            "solve",
            str(DATA / "wide.dprle"),
            "--workers",
            "2",
            "--stats-json",
            str(stats_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(stats_path.read_text())
    counters = doc["metrics"]["counters"]
    # wide.dprle clears the default MIN_PARALLEL_COMBINATIONS, so the
    # enumeration really ran on the pool; states visited by workers
    # must be present in the CLI's exported totals.
    assert counters["gci.combinations_enumerated"] == 225
    assert counters["states_visited"] > 0


def test_cli_journal_alone_with_workers(tmp_path, capsys):
    """A journal without a collector still gets worker snapshots shipped
    home; absorbing them must not fail the solve."""
    journal = tmp_path / "j.jsonl"
    code = main(
        ["solve", str(DATA / "wide.dprle"), "--workers", "2",
         "--journal", str(journal)]
    )
    assert code == 0
    capsys.readouterr()
    events = [json.loads(line) for line in journal.read_text().splitlines()]
    assert events[-1]["event"] == "journal_end"


def test_cli_workers_flag_matches_serial_output(tmp_path, capsys):
    def solved_lines(out: str) -> list[str]:
        # Drop the "(N assignment(s), 0.123s)" summary: wall time
        # differs run to run.
        return [l for l in out.splitlines() if not l.startswith("(")]

    fixture = str(DATA / "fig9.dprle")
    assert main(["solve", fixture]) == 0
    serial_out = capsys.readouterr().out
    assert main(["solve", fixture, "--workers", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert solved_lines(parallel_out) == solved_lines(serial_out)
