"""In-process tests for the daemon: endpoints, deadlines, the job queue.

The daemon runs on a background thread with its own event loop
(``port=0``, real sockets on loopback) and is driven with
``http.client`` — the same wire a real client uses, without the cost
of a subprocess per test.  Subprocess lifecycle (signals, drain) lives
in ``test_shutdown.py``.
"""

import asyncio
import http.client
import json
import pathlib
import threading
import time

import pytest

from repro.server import SCHEMA, ServerConfig, SolveDaemon
from repro.server import daemon as daemon_module

from ..helpers import OVER_LIMIT_SOURCE

DATA = pathlib.Path(__file__).parent.parent / "data"

SIMPLE_SOURCE = "var v;\nv <= /ab+(c|d)*/;\n"


class DaemonHarness:
    """Run one SolveDaemon on a background thread for a test's life."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        self.daemon = SolveDaemon(ServerConfig(**overrides))
        self.exit_code = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.exit_code = asyncio.run(self.daemon.run())

    def __enter__(self):
        self._thread.start()
        assert self.daemon.ready.wait(timeout=30), "daemon never came up"
        assert self.daemon.port is not None
        return self

    def __exit__(self, *exc_info):
        self.daemon.request_stop()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "daemon failed to stop"

    def request(self, method, path, body=None, timeout=60):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.daemon.port, timeout=timeout
        )
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


@pytest.fixture(scope="module")
def daemon():
    with DaemonHarness() as harness:
        yield harness


class TestEndpoints:
    def test_healthz(self, daemon):
        status, doc = daemon.request("GET", "/healthz")
        assert status == 200
        assert doc == {"schema": SCHEMA, "ok": True, "stopping": False}

    def test_solve_returns_assignments_with_witnesses(self, daemon):
        status, doc = daemon.request(
            "POST", "/solve", {"source": SIMPLE_SOURCE}
        )
        assert status == 200
        result = doc["result"]
        assert result["satisfiable"] is True
        assert result["count"] >= 1
        entry = result["assignments"][0]["v"]
        assert entry["witness"].startswith("ab")
        assert entry["regex"]

    def test_solve_max_solutions_caps_count(self, daemon):
        text = (DATA / "fig9.dprle").read_text()
        status, doc = daemon.request(
            "POST", "/solve", {"source": text, "max_solutions": 1}
        )
        assert status == 200
        assert doc["result"]["count"] == 1

    def test_check_reports_diagnostics_schema(self, daemon):
        status, doc = daemon.request(
            "POST", "/check", {"source": SIMPLE_SOURCE}
        )
        assert status == 200
        assert doc["result"]["report"]["schema"] == "dprle.check/1"

    def test_analyze_runs_on_php_source(self, daemon):
        source = "<?php\n$x = $_GET['q'];\nmysql_query($x);\n?>"
        status, doc = daemon.request("POST", "/analyze", {"source": source})
        assert status == 200
        assert "findings" in doc["result"]

    def test_stats_exposes_server_counters_and_cache(self, daemon):
        daemon.request("GET", "/healthz")
        status, doc = daemon.request("GET", "/stats")
        assert status == 200
        counters = doc["metrics"]["counters"]
        assert counters.get("server.requests", 0) >= 1
        assert "cache" in doc
        assert doc["uptime_s"] >= 0


class TestErrors:
    def test_dsl_error_is_400_with_code(self, daemon):
        status, doc = daemon.request(
            "POST", "/solve", {"source": "var v;\nv subset /a/;\n"}
        )
        assert status == 400
        assert doc["error"]["code"].startswith("D")
        assert "line 2" in doc["error"]["message"]

    def test_combination_limit_is_422_with_d101(self, daemon):
        status, doc = daemon.request(
            "POST", "/solve", {"source": OVER_LIMIT_SOURCE}
        )
        assert status == 422
        assert doc["error"]["code"] == "D101"
        assert "226981" in doc["error"]["message"]
        # One refused request is not a dead daemon.
        status, _ = daemon.request("POST", "/solve", {"source": SIMPLE_SOURCE})
        assert status == 200

    def test_missing_source_is_400(self, daemon):
        status, doc = daemon.request("POST", "/solve", {})
        assert status == 400

    def test_bad_json_body_is_400(self, daemon):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.daemon.port, timeout=30
        )
        try:
            conn.request("POST", "/solve", body=b"not json at all")
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in doc["error"]["message"]

    def test_unknown_path_is_404(self, daemon):
        status, _ = daemon.request("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, daemon):
        status, _ = daemon.request("GET", "/solve")
        assert status == 405

    def test_unknown_attack_is_400(self, daemon):
        status, doc = daemon.request(
            "POST", "/analyze", {"source": "<?php ?>", "attack": "nope"}
        )
        assert status == 400
        assert "unknown attack" in doc["error"]["message"]


class TestDeadlines:
    def test_already_expired_deadline_is_504(self, daemon):
        status, doc = daemon.request(
            "POST", "/solve", {"source": SIMPLE_SOURCE, "deadline_ms": 0}
        )
        assert status == 504
        assert doc["error"]["status"] == 504

    def test_deadline_exceeded_increments_counter(self, daemon):
        daemon.request(
            "POST", "/solve", {"source": SIMPLE_SOURCE, "deadline_ms": 0}
        )
        _, doc = daemon.request("GET", "/stats")
        counters = doc["metrics"]["counters"]
        assert counters.get("server.deadline_exceeded", 0) >= 1

    def test_generous_deadline_succeeds(self, daemon):
        status, doc = daemon.request(
            "POST", "/solve",
            {"source": SIMPLE_SOURCE, "deadline_ms": 120_000},
        )
        assert status == 200
        assert doc["result"]["satisfiable"] is True

    def test_bad_deadline_type_is_400(self, daemon):
        status, _ = daemon.request(
            "POST", "/solve",
            {"source": SIMPLE_SOURCE, "deadline_ms": "soon"},
        )
        assert status == 400


class TestJsonRpc:
    def rpc(self, daemon, method, params=None, rpc_id=1):
        return daemon.request(
            "POST", "/rpc",
            {"jsonrpc": "2.0", "id": rpc_id, "method": method,
             "params": params or {}},
        )

    def test_solve_via_rpc(self, daemon):
        status, doc = self.rpc(daemon, "solve", {"source": SIMPLE_SOURCE})
        assert status == 200
        assert doc["id"] == 1
        assert doc["result"]["satisfiable"] is True

    def test_stats_and_health_via_rpc(self, daemon):
        status, doc = self.rpc(daemon, "health")
        assert doc["result"]["ok"] is True
        status, doc = self.rpc(daemon, "stats")
        assert doc["result"]["schema"] == SCHEMA

    def test_unknown_method(self, daemon):
        _, doc = self.rpc(daemon, "exploit")
        assert doc["error"]["code"] == -32601

    def test_parse_error(self, daemon):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.daemon.port, timeout=30
        )
        try:
            conn.request("POST", "/rpc", body=b"{broken")
            doc = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert doc["error"]["code"] == -32700

    def test_dsl_error_maps_to_invalid_params(self, daemon):
        _, doc = self.rpc(daemon, "solve", {"source": "var v;\nv oops;\n"})
        assert doc["error"]["code"] == -32602


class TestJobQueue:
    def test_jobs_complete_in_arrival_order(self, monkeypatch):
        """One FIFO: queued jobs run in arrival order whatever their
        endpoint, so a check never overtakes an earlier solve."""
        completed = []
        a_started = threading.Event()
        release_a = threading.Event()
        run_job = daemon_module.run_job

        def recording_job(kind, payload, config):
            if payload.get("label") == "A":
                a_started.set()
                assert release_a.wait(timeout=60)
            result = run_job(kind, payload, config)
            completed.append(payload.get("label"))
            return result

        # The dispatcher looks run_job up by name on every job.
        monkeypatch.setattr(daemon_module, "run_job", recording_job)
        with DaemonHarness() as harness:
            statuses = {}

            def send(label, kind):
                status, _ = harness.request(
                    "POST", f"/{kind}", {"source": SIMPLE_SOURCE, "label": label}
                )
                statuses[label] = status

            def wait_for_queue_depth(depth):
                deadline = time.monotonic() + 30
                while harness.request("GET", "/stats")[1]["queue_depth"] != depth:
                    assert time.monotonic() < deadline, "job never queued"
                    time.sleep(0.01)

            threads = [threading.Thread(target=send, args=("A", "solve"))]
            threads[0].start()
            assert a_started.wait(timeout=30)
            for depth, (label, kind) in enumerate(
                [("B", "check"), ("C", "solve"), ("D", "check")], start=1
            ):
                thread = threading.Thread(target=send, args=(label, kind))
                thread.start()
                threads.append(thread)
                wait_for_queue_depth(depth)
            release_a.set()
            for thread in threads:
                thread.join(timeout=60)
            assert statuses == dict.fromkeys("ABCD", 200)
        assert completed == ["A", "B", "C", "D"]

    @pytest.mark.parametrize("field", ["backend", "plan"])
    def test_unknown_knob_field_still_solves(self, daemon, field):
        status, doc = daemon.request(
            "POST", "/solve", {"source": SIMPLE_SOURCE, field: "typo"}
        )
        assert status == 200
        assert doc["result"]["satisfiable"] is True

    def test_shared_cache_across_requests(self):
        # Second identical solve must hit the daemon-lifetime cache.
        with DaemonHarness() as harness:
            text = (DATA / "wide.dprle").read_text()
            for _ in range(2):
                status, _ = harness.request(
                    "POST", "/solve", {"source": text, "max_solutions": 1}
                )
                assert status == 200
            _, stats = harness.request("GET", "/stats")
            hits = stats["cache"]["hits"]
            assert sum(hits.values()) > 0


class TestPersistence:
    def test_store_survives_daemon_restart(self, tmp_path):
        db = tmp_path / "sig.db"
        text = (DATA / "wide.dprle").read_text()
        with DaemonHarness(cache_db=db) as first:
            status, _ = first.request(
                "POST", "/solve", {"source": text, "max_solutions": 1}
            )
            assert status == 200
            _, stats = first.request("GET", "/stats")
            assert stats["cache"]["store"]["writes"] > 0
        assert first.exit_code == 0

        with DaemonHarness(cache_db=db) as second:
            status, _ = second.request(
                "POST", "/solve", {"source": text, "max_solutions": 1}
            )
            assert status == 200
            _, stats = second.request("GET", "/stats")
            store = stats["cache"]["store"]
            # The repeated query answers from disk: verdicts and
            # memoized machines come back, nothing is recomputed.
            assert store["hits"] > 0
            assert store["writes"] == 0
            counters = stats["metrics"]["counters"]
            assert counters.get("cache.store.hits", 0) > 0
        assert second.exit_code == 0

    def test_journal_gets_trace_ids(self, tmp_path):
        journal = tmp_path / "server.jsonl"
        with DaemonHarness(journal=journal) as harness:
            harness.request("POST", "/solve", {"source": SIMPLE_SOURCE})
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line
        ]
        spans = [
            record for record in lines
            if record.get("name") == "server_request"
        ]
        assert spans, "no server_request spans journalled"
        assert all(record.get("trace") for record in spans)
