"""``dprle serve`` with the traced pass's per-layer instrumentation.

Usage: ``python perfbench/_daemon.py LAYERS_JSON [serve options]``.

Runs the real daemon (``repro.tools.cli serve``) with two additions:
the front-end entry points are wrapped as in the in-process traced
pass, and every job the dispatcher executes runs under its own span
collector, whose tree is folded into per-layer totals.  The totals are
written to ``LAYERS_JSON`` when the daemon has drained and exited.
"""

from __future__ import annotations

import json
import pathlib
import sys

import _layers


def main(argv: list[str]) -> int:
    from repro.server import daemon
    from repro.tools import cli

    out = pathlib.Path(argv[0])
    raw = _layers.empty_raw()
    run_job = daemon.run_job

    def traced_job(kind: str, payload: dict, config: object) -> dict:
        with _layers.traced_query(raw):
            return run_job(kind, payload, config)

    daemon.run_job = traced_job
    try:
        with _layers.instrumented():
            code = cli.main(["serve", *argv[1:]])
    finally:
        daemon.run_job = run_job
    out.write_text(json.dumps(raw))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
