"""The dprle benchmark: Fig. 12, corpus enumeration and daemon traffic.

Usage::

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --seed N

The first form runs one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` untraced (``--trace 0``), or
its per-layer metrics from a traced run (``--trace 1``).  It exits 1
when any answer is wrong.  The second form runs every workload in its
own child process, untraced and then traced, and prints every metric.
Per-query rows (n, median, IQR) go to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import _measure

#: Set-up time counts from here: imports, inputs, daemon start.
STARTED = _measure.wall()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Optional  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

IN_PROCESS = {"fig12_secure": True, "fig12_fast16": False, "dprle_enum": None}
WORKLOADS = (*IN_PROCESS, "server_mix")

#: Set-up is repeated in this many fresh child processes, besides the
#: run's own, and the median of all of them is reported.
SETUP_PROBES = 2


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(values: dict[str, float], spec_metrics: list[dict]) -> dict[str, dict]:
    """``{name: {value, unit}}`` for exactly the metrics ``spec_metrics``
    lists; anything missing, extra or not finite is an error."""
    names = [metric["name"] for metric in spec_metrics]
    if set(values) != set(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    out = {}
    for metric in spec_metrics:
        value = float(values[metric["name"]])
        if not math.isfinite(value):
            raise ValueError(f"{metric['name']} is {value}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


# -- set-up ------------------------------------------------------------------


def setup_inprocess(workload: str) -> list:
    import _workloads

    heavy = IN_PROCESS[workload]
    if heavy is None:
        queries = _workloads.dprle_queries()
    else:
        queries = _workloads.fig12_queries(heavy)
    _workloads.warm_up(heavy)
    return queries


def setup_server() -> tuple[Any, Any]:
    import _server

    return _server.payloads(), _server.spawn("setup")


def probe(workload: str) -> dict[str, float]:
    """One set-up in this fresh process; for the server, also the CPU an
    idle daemon spends starting and draining."""
    if workload != "server_mix":
        setup_inprocess(workload)
        return {"setup_s": _measure.wall() - STARTED, "daemon_cpu_s": 0.0}
    import _server

    _, daemon = setup_server()
    setup_s = _measure.wall() - STARTED
    try:
        cpu_s, _ = daemon.stop()
    finally:
        daemon.kill()
        _server.remove_scratch()
    return {"setup_s": setup_s, "daemon_cpu_s": cpu_s}


def run_probes(workload: str, seed: int) -> list[dict[str, float]]:
    results = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, cwd=str(ROOT), timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


# -- measuring ---------------------------------------------------------------


def environment() -> dict[str, object]:
    from repro.automata.backend import active_backend

    return _measure.environment(active_backend().name)


def measure_inprocess(args: argparse.Namespace, tally: Any) -> tuple[dict, list]:
    import _workloads

    queries = setup_inprocess(args.workload)
    setup = [_measure.wall() - STARTED]
    if args.trace:
        metrics, times = _workloads.measure_traced(queries, args.seed, args.seconds, tally)
    else:
        setup += [p["setup_s"] for p in run_probes(args.workload, args.seed)]
        times, passes = _workloads.measure(queries, args.seed, args.seconds, tally)
        metrics = _workloads.end_to_end(times, passes, _measure.median(setup))
    env = environment()
    return metrics, [t.row(env) for t in times.values() if t.samples]


def measure_server(args: argparse.Namespace, tally: Any) -> tuple[dict, list]:
    import _server

    pool, daemon = setup_server()
    setup = [_measure.wall() - STARTED]
    try:
        probes = run_probes(args.workload, args.seed)
        setup += [p["setup_s"] for p in probes]
        idle_cpu = _measure.median([p["daemon_cpu_s"] for p in probes])
        if args.trace:
            metrics, replicas = _server.measure_traced(
                pool, daemon, args.seed, args.seconds, idle_cpu, tally
            )
        else:
            replicas = _server.measure(
                pool, daemon, args.seed, args.seconds, idle_cpu, tally
            )
            metrics = _server.end_to_end(replicas, _measure.median(setup))
    finally:
        daemon.kill()
        _server.remove_scratch()
    return metrics, _server.rows(replicas, environment())


def run_one(args: argparse.Namespace) -> int:
    import _checks

    spec = load_spec()
    tally = _checks.Tally()
    if args.workload == "server_mix":
        values, rows = measure_server(args, tally)
    else:
        values, rows = measure_inprocess(args, tally)
    metrics = emit(values, spec["per_layer" if args.trace else "end_to_end"])
    OUT.mkdir(exist_ok=True)
    suffix = ".traced" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "metrics": metrics, "rows": rows, "problems": tally.problems},
            indent=2,
        )
        + "\n"
    )
    for problem in tally.problems[:20]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload ------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child, untraced then traced."""
    combined: dict[str, dict] = {}
    attempted = failed = 0
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
            )
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} --trace {trace}: no result (exit {done.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and done.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"== {workload} (trace {trace}): attempted {result['attempted']}, failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:36s} {metric['value']:14.6g} {metric['unit']}")
                combined[f"{workload}/{name}"] = metric
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if ok and failed == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no dprle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("DPRLE_WORKERS", None)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])

    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        print(json.dumps(probe(args.workload)))
        return 0
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
