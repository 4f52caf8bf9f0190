"""Subprocess lifecycle tests: SIGTERM drain, SIGKILL, --check-only.

These exercise the real ``dprle serve`` entry point — signal handlers
only install on a main-thread event loop, so the in-process harness in
``test_daemon.py`` cannot cover them.  The drain contract under test:
a SIGTERM arriving while requests are in flight produces answers for
*every* accepted request (no dropped connections, no 503s for work
already read off the socket), then a clean exit 0.
"""

import http.client
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import threading
import time

DATA = pathlib.Path(__file__).parent.parent / "data"
SRC = str(pathlib.Path(__file__).parent.parent.parent / "src")

_LISTENING = re.compile(r"dprle serve: listening on 127\.0\.0\.1:(\d+)")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn(*extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "serve",
         "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        # Its own session, so _reap can take down the worker pool too.
        start_new_session=True,
    )


def _reap(process):
    """SIGKILL the daemon's whole process group and collect its output.

    Pool workers exit on their own once the daemon is gone
    (``TestSigkill``); killing the group spares the cleanup their
    polling delay.  The timeout turns a worker that still holds the
    stdout pipe into a failure instead of a hang.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate(timeout=30)


def _await_port(process, timeout=30.0):
    """Read stdout lines until the daemon prints its listening port."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited early: {process.wait()}"
            )
        match = _LISTENING.search(line)
        if match:
            return int(match.group(1))
    raise AssertionError("server never printed its listening line")


def _post(port, path, body, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(body))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _stats(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class TestCheckOnly:
    def test_check_only_exits_zero(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--port", "0", "--check-only",
             "--cache-db", str(tmp_path / "probe.db")],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "dprle serve: ok" in result.stdout
        assert "store ready" in result.stdout

    def test_check_only_without_store(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--port", "0", "--check-only"],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=60,
        )
        assert result.returncode == 0
        assert "store disabled" in result.stdout

    def test_bind_failure_exits_nonzero(self):
        # Hold a port open so the daemon's bind fails.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro.tools.cli", "serve",
                 "--port", str(port), "--check-only"],
                capture_output=True,
                text=True,
                env=_env(),
                timeout=60,
            )
        finally:
            blocker.close()
        assert result.returncode == 2
        assert "error" in (result.stdout + result.stderr).lower()


class TestSigtermDrain:
    def test_inflight_requests_answered_then_clean_exit(self):
        process = _spawn()
        try:
            port = _await_port(process)
            text = (DATA / "wider.dprle").read_text()
            results = []
            lock = threading.Lock()

            def fire():
                status, doc = _post(
                    port, "/solve", {"source": text, "max_solutions": 1}
                )
                with lock:
                    results.append((status, doc))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            # SIGTERM lands while jobs wait behind the running one, so
            # the drain must answer queued work, not only in-flight work.
            deadline = time.monotonic() + 30
            while _stats(port)["queue_depth"] < 1:
                assert time.monotonic() < deadline, "no job ever queued"
                time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=120)
            assert not any(t.is_alive() for t in threads)

            assert len(results) == 6
            for status, doc in results:
                assert status == 200, doc
                assert doc["result"]["satisfiable"] is True

            out, _ = process.communicate(timeout=60)
            assert process.returncode == 0, out
            assert "dprle serve: shutdown complete" in out
        finally:
            if process.poll() is None:
                _reap(process)

    def test_sigterm_idle_exits_promptly(self):
        process = _spawn()
        try:
            _await_port(process)
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0, out
            assert "dprle serve: shutdown complete" in out
        finally:
            if process.poll() is None:
                _reap(process)


class TestSigkill:
    def test_killed_daemon_leaves_no_pool_worker(self):
        process = _spawn("--workers", "2")
        try:
            port = _await_port(process)
            status, _ = _post(
                port, "/solve",
                {"source": (DATA / "wide.dprle").read_text()},
            )
            assert status == 200
            metrics = _stats(port)["metrics"]
            assert any(
                name.startswith("parallel.")
                for series in metrics.values()
                for name in series
            ), "the solve never reached the worker pool"
            process.kill()  # the daemon only, not its process group
            process.wait(timeout=30)
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(process.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "pool worker outlived daemon"
                time.sleep(0.05)
        finally:
            _reap(process)


class TestRestartWarm:
    def test_killed_and_restarted_server_answers_from_store(self, tmp_path):
        """The headline E2E: kill a warmed server, restart it on the
        same --cache-db, and the repeated query answers with store hits
        and zero store writes."""
        db = str(tmp_path / "sig.db")
        text = (DATA / "wide.dprle").read_text()

        first = _spawn("--cache-db", db)
        try:
            port = _await_port(first)
            status, _ = _post(
                port, "/solve", {"source": text, "max_solutions": 1}
            )
            assert status == 200
            first.send_signal(signal.SIGTERM)
            out, _ = first.communicate(timeout=60)
            assert first.returncode == 0, out
        finally:
            if first.poll() is None:
                _reap(first)

        second = _spawn("--cache-db", db)
        try:
            port = _await_port(second)
            status, _ = _post(
                port, "/solve", {"source": text, "max_solutions": 1}
            )
            assert status == 200
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("GET", "/stats")
                stats = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            store = stats["cache"]["store"]
            assert store["hits"] > 0
            assert store["writes"] == 0
            assert stats["metrics"]["counters"]["cache.store.hits"] > 0
            second.send_signal(signal.SIGTERM)
            out, _ = second.communicate(timeout=60)
            assert second.returncode == 0, out
        finally:
            if second.poll() is None:
                _reap(second)
