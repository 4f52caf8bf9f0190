"""CI smoke check: the solve daemon end to end, including shutdown.

Starts a real ``dprle serve --workers 2`` subprocess, in its own
session, against a temporary ``--cache-db``, runs the scripted client
conversation CI gates on — a solve that reaches the worker pool, a
check, a stats read, and a deliberately expired deadline
(``deadline_ms=0`` must produce a deterministic 504, not a hang or a
drop) — then SIGTERMs the server and requires the full drain
handshake: "shutdown complete" on stdout, exit code 0, and no process
of the session (a pool worker) left behind.  The final
``/stats`` document is written to ``server-stats.json`` so CI can
upload it as an artifact.  This is a guard rail, not a benchmark; the
daemon's timings come from perfbench's ``server_mix`` workload.

Usage::

    PYTHONPATH=src python -m benchmarks.server_smoke
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import pathlib
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

SRC = str(pathlib.Path(__file__).parent.parent / "src")
STATS_OUT = pathlib.Path("server-stats.json")

SOURCE = """
var va, vb, vc;
va <= /(a|b)*/;
vb <= /(a|b)*/;
vc <= /(a|b)*/;
va . vb <= /(a|b){7}/;
vb . vc <= /(a|b){7}/;
"""

_LISTENING = re.compile(r"dprle serve: listening on 127\.0\.0\.1:(\d+)")


def _request(port: int, method: str, path: str, body: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def _forward_lines(stream, lines: queue.Queue) -> None:
    """Copy the daemon's output into ``lines``, one line per item, then
    ``None`` at end of output."""
    for line in stream:
        lines.put(line)
    lines.put(None)


def _session_gone(session: int) -> bool:
    """True once no process is left in the daemon's process group
    (polled for about five seconds)."""
    for _ in range(100):
        try:
            os.killpg(session, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"

    with tempfile.TemporaryDirectory(prefix="dprle-smoke-") as tmp:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve",
             "--port", "0", "--workers", "2",
             "--cache-db", str(pathlib.Path(tmp) / "sig.db")],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        # A reader thread owns stdout, so every wait on the daemon's
        # output has a timeout and a silent daemon fails the smoke.
        lines: queue.Queue = queue.Queue()
        threading.Thread(
            target=_forward_lines, args=(process.stdout, lines), daemon=True
        ).start()
        try:
            port = None
            while port is None:
                try:
                    line = lines.get(timeout=30)
                except queue.Empty:
                    _expect(False, "server printed nothing for 30 s")
                _expect(line is not None, f"server exited early: {process.poll()}")
                match = _LISTENING.search(line)
                if match:
                    port = int(match.group(1))

            status, doc = _request(port, "GET", "/healthz")
            _expect(status == 200 and doc["ok"], f"healthz: {status} {doc}")
            print("healthz ok")

            status, doc = _request(
                port, "POST", "/solve",
                {"source": SOURCE, "max_solutions": 1},
            )
            _expect(status == 200, f"solve: {status} {doc}")
            _expect(doc["result"]["satisfiable"], "solve: unexpectedly unsat")
            print(f"solve ok ({doc['result']['count']} solution)")

            status, doc = _request(port, "POST", "/check", {"source": SOURCE})
            _expect(status == 200, f"check: {status} {doc}")
            print("check ok")

            status, doc = _request(
                port, "POST", "/solve",
                {"source": SOURCE, "deadline_ms": 0},
            )
            _expect(status == 504, f"expected 504, got {status}: {doc}")
            print("deadline-exceeded ok (504)")

            status, stats = _request(port, "GET", "/stats")
            _expect(status == 200, f"stats: {status}")
            counters = stats["metrics"]["counters"]
            _expect(
                counters.get("server.requests", 0) >= 4,
                f"server.requests counter too low: {counters}",
            )
            _expect(
                counters.get("server.deadline_exceeded", 0) >= 1,
                "deadline_exceeded counter never incremented",
            )
            _expect(
                stats["cache"]["store"]["writes"] > 0,
                "store never saw a write-through",
            )
            _expect(
                any(
                    name.startswith("parallel.")
                    for series in stats["metrics"].values()
                    for name in series
                ),
                "the solve never reached the worker pool",
            )
            STATS_OUT.write_text(json.dumps(stats, indent=2) + "\n")
            print(f"stats ok -> {STATS_OUT}")

            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
            out = "".join(iter(lambda: lines.get(timeout=60), None))
            _expect(
                process.returncode == 0,
                f"unclean exit {process.returncode}: {out}",
            )
            _expect(
                "dprle serve: shutdown complete" in out,
                f"no shutdown handshake in output: {out}",
            )
            _expect(
                _session_gone(process.pid),
                "a process of the daemon's session outlived it",
            )
            print("shutdown ok (drained, exit 0, no process left)")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
