"""The ``dprle`` command-line tool.

The paper released its decision procedure "as a stand-alone utility in
the style of a theorem prover or SAT solver" (Sec. 4); this is our
equivalent.  Three subcommands:

``solve FILE``
    Solve a constraint file in the DSL of
    :mod:`repro.constraints.dsl`; print each disjunctive assignment as
    regexes plus a concrete witness per variable.

``check FILE``
    Statically analyze a constraint file without solving: structural
    lints, abstract-domain unsatisfiability proofs, and
    combination-space predictions, as stable ``D``-coded diagnostics
    (``docs/DIAGNOSTICS.md``); ``--json`` emits the ``dprle.check/1``
    schema.

``analyze FILE``
    Run the SQL-injection analysis on a PHP file and print exploit
    inputs for each vulnerable sink.

``corpus``
    Regenerate the synthetic benchmark corpus to a directory.

``obs report|diff|export``
    Work with the stats JSON the other subcommands emit via
    ``--stats-json`` (and with ``BENCH_solver.json``): render a human
    summary, compare two runs with a regression gate (``--fail-over``),
    or export to Prometheus text format / Chrome trace JSON.

``solve``, ``check``, ``analyze``, and ``graph`` all take the same
observability flags (``--stats-json``, ``--trace``, ``--journal``,
cache, worker and planner knobs) — see :func:`_add_observability_flags`.

Examples::

    dprle solve constraints.dprle --precheck
    dprle check constraints.dprle --json --fail-on warning
    dprle analyze vulnerable.php --attack tautology
    dprle corpus --out ./corpus
    dprle solve big.dprle --stats-json run.json --journal run.jsonl
    dprle obs diff baseline.json run.json --fail-over 20
    dprle obs export run.json --format chrome --out run.trace.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from contextlib import ExitStack
from typing import Optional

from .. import obs
from ..analysis.analyzer import analyze_source
from ..analysis.attacks import ALL_ATTACKS, CONTAINS_QUOTE
from ..analysis.corpus import build_corpus
from ..cache import CacheLimits, LangCache
from ..constraints.dsl import DslError, parse_problem
from ..solver.gci import GciLimits
from ..solver.plan import PLAN_MODES
from ..solver.worklist import solve

__all__ = ["main"]


def _add_observability_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--stats-json", type=pathlib.Path, default=None, metavar="PATH",
        help="write a machine-readable span trace + metrics snapshot "
        "(see docs/OBSERVABILITY.md) to PATH",
    )
    subparser.add_argument(
        "--trace", action="store_true",
        help="print the span tree (where the solve spent its time) to stderr",
    )
    subparser.add_argument(
        "--journal", type=pathlib.Path, default=None, metavar="PATH",
        help="stream a JSONL event journal (span open/close, heartbeat "
        "progress, per-solve trace IDs) to PATH while running",
    )
    subparser.add_argument(
        "--no-cache", action="store_true",
        help="disable the language-signature cache (docs/CACHING.md)",
    )
    subparser.add_argument(
        "--cache-entries", type=int, default=4096, metavar="N",
        help="max entries in the language cache (default %(default)s)",
    )
    subparser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan the GCI bridge-combination enumeration out across N "
        "worker processes (docs/PARALLELISM.md); 0 forces serial, "
        "default honours the DPRLE_WORKERS environment variable",
    )
    subparser.add_argument(
        "--plan", choices=PLAN_MODES, default="off",
        help="GCI enumeration planner (docs/PLANNER.md): 'equiv' "
        "collapses signature-interchangeable bridge edges, 'beam' "
        "prunes and schedules by the viability mask, 'full' does both "
        "(default %(default)s; output is identical in every mode)",
    )
    subparser.add_argument(
        "--beam-width", type=int, default=0, metavar="N",
        help="max chunks in flight for a planned parallel solve with "
        "--max-solutions (0 sizes the window from predicted yield)",
    )


def _cli_limits(args: argparse.Namespace) -> Optional[GciLimits]:
    """GCI limits from CLI flags; None when every flag is at its
    default (so library defaults — including DPRLE_WORKERS — apply)."""
    precheck = bool(getattr(args, "precheck", False))
    plan = getattr(args, "plan", "off")
    beam_width = int(getattr(args, "beam_width", 0))
    if args.workers is None and not precheck and plan == "off" and not beam_width:
        return None
    return GciLimits(
        workers=args.workers,
        precheck=precheck,
        plan=plan,
        beam_width=beam_width,
    )


def _run_observed(args: argparse.Namespace, run) -> int:
    """Run a subcommand body under the language cache, with whatever
    telemetry sinks the flags request (collector and/or journal).

    This is the one flag-wiring point shared by ``solve``, ``check``,
    ``analyze``, and ``graph`` — the flags themselves are declared once
    in :func:`_add_observability_flags`.
    """
    cache = LangCache(
        CacheLimits(enabled=not args.no_cache, max_entries=args.cache_entries)
    )
    want_collect = args.stats_json is not None or args.trace
    if not want_collect and args.journal is None:
        with cache.activate():
            return run()
    collector = None
    with ExitStack() as stack:
        if args.journal is not None:
            try:
                stack.enter_context(obs.journal_to(args.journal))
            except OSError as error:
                print(
                    f"dprle: cannot write {args.journal}: {error}",
                    file=sys.stderr,
                )
                return 2
        if want_collect:
            collector = stack.enter_context(obs.collect())
        stack.enter_context(cache.activate())
        code = run()
    if args.journal is not None:
        print(f"wrote journal to {args.journal}", file=sys.stderr)
    if collector is None:
        return code
    if args.trace:
        print(collector.render_trace(), file=sys.stderr)
    if args.stats_json is not None:
        try:
            args.stats_json.write_text(collector.to_json(indent=2) + "\n")
        except OSError as error:
            print(
                f"dprle: cannot write {args.stats_json}: {error}",
                file=sys.stderr,
            )
            return 2
        print(f"wrote stats to {args.stats_json}", file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dprle",
        description="Decision procedure for subset constraints over "
        "regular languages (PLDI 2009 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve_cmd = commands.add_parser("solve", help="solve a constraint file")
    solve_cmd.add_argument("file", type=pathlib.Path)
    solve_cmd.add_argument(
        "--max-solutions", type=int, default=None, metavar="N",
        help="stop after N disjunctive assignments",
    )
    solve_cmd.add_argument(
        "--witness-only", action="store_true",
        help="print one concrete string per variable instead of regexes",
    )
    solve_cmd.add_argument(
        "--precheck", action="store_true",
        help="run the repro.check abstract domains first and prune "
        "provably-empty nodes (solution-preserving; docs/DIAGNOSTICS.md)",
    )
    _add_observability_flags(solve_cmd)

    check_cmd = commands.add_parser(
        "check", help="statically analyze a constraint file without solving"
    )
    check_cmd.add_argument("file", type=pathlib.Path)
    check_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable dprle.check/1 report",
    )
    check_cmd.add_argument(
        "--fail-on", choices=["warning", "error"], default=None,
        metavar="SEVERITY",
        help="exit 1 when any diagnostic reaches SEVERITY "
        "('warning' or 'error')",
    )
    _add_observability_flags(check_cmd)

    lint_cmd = commands.add_parser(
        "lint", help="statically analyze the repo's own source for "
        "domain-invariant violations (docs/LINTING.md)"
    )
    lint_cmd.add_argument(
        "paths", nargs="+", type=pathlib.Path,
        help="files or directories to lint",
    )
    lint_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable dprle.lint/1 report",
    )
    lint_cmd.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated L-codes to run (e.g. L030,L031); "
        "default: all registered rules",
    )
    lint_cmd.add_argument(
        "--baseline", type=pathlib.Path, default=None, metavar="FILE",
        help="suppress findings listed in this committed baseline; "
        "entries matching nothing are reported as stale",
    )
    lint_cmd.add_argument(
        "--write-baseline", type=pathlib.Path, default=None, metavar="FILE",
        help="write every current finding to FILE as the new baseline",
    )
    lint_cmd.add_argument(
        "--fail-on", choices=["warning", "error"], default=None,
        metavar="SEVERITY",
        help="exit 1 when any finding reaches SEVERITY, or when the "
        "baseline has stale entries",
    )

    analyze_cmd = commands.add_parser("analyze", help="analyze a PHP file")
    analyze_cmd.add_argument("file", type=pathlib.Path)
    analyze_cmd.add_argument(
        "--attack",
        choices=[a.name for a in ALL_ATTACKS],
        default=CONTAINS_QUOTE.name,
        help="attack language (default: %(default)s)",
    )
    analyze_cmd.add_argument(
        "--all-sinks", action="store_true",
        help="solve every sink query instead of stopping at the first hit",
    )
    analyze_cmd.add_argument(
        "--check", action="store_true",
        help="run the pre-solve checker on each sink's constraint "
        "system and print its diagnostics",
    )
    _add_observability_flags(analyze_cmd)

    graph_cmd = commands.add_parser(
        "graph", help="emit a constraint file's dependency graph as DOT"
    )
    graph_cmd.add_argument("file", type=pathlib.Path)
    graph_cmd.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write DOT here instead of stdout",
    )
    _add_observability_flags(graph_cmd)

    serve_cmd = commands.add_parser(
        "serve", help="run the persistent solve daemon (docs/SERVER.md)"
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default %(default)s; the daemon speaks "
        "plain unauthenticated HTTP)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8765, metavar="N",
        help="TCP port (default %(default)s); 0 lets the OS pick, and "
        "the chosen port is printed on the 'listening on' line",
    )
    serve_cmd.add_argument(
        "--cache-db", type=pathlib.Path, default=None, metavar="PATH",
        help="persistent signature store (sqlite; docs/CACHING.md): "
        "cache state survives restarts and may be shared by replicas",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="default worker fan-out for solves (docs/PARALLELISM.md); "
        "0 forces serial, default honours DPRLE_WORKERS",
    )
    serve_cmd.add_argument(
        "--plan", choices=PLAN_MODES, default="off",
        help="default enumeration planner mode (docs/PLANNER.md)",
    )
    serve_cmd.add_argument(
        "--cache-entries", type=int, default=4096, metavar="N",
        help="max entries in the shared in-memory language cache "
        "(default %(default)s)",
    )
    serve_cmd.add_argument(
        "--batch-window-ms", type=float, default=5.0, metavar="MS",
        help="how long to wait for compatible jobs to coalesce into a "
        "batch (default %(default)s; 0 disables coalescing)",
    )
    serve_cmd.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="max jobs dispatched as one batch (default %(default)s)",
    )
    serve_cmd.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="deadline applied to requests without their own "
        "deadline_ms (default: none)",
    )
    serve_cmd.add_argument(
        "--journal", type=pathlib.Path, default=None, metavar="PATH",
        help="stream a JSONL event journal with per-request trace ids "
        "to PATH while serving",
    )
    serve_cmd.add_argument(
        "--check-only", action="store_true",
        help="validate config, bind the socket, open the store, print "
        "ok, and exit 0 (the health-check / preflight mode)",
    )

    corpus_cmd = commands.add_parser("corpus", help="emit the benchmark corpus")
    corpus_cmd.add_argument("--out", type=pathlib.Path, default=pathlib.Path("corpus"))
    corpus_cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor for per-file size targets (default 1.0)",
    )

    obs_cmd = commands.add_parser(
        "obs", help="inspect, compare, and export stats JSON files"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    report_cmd = obs_sub.add_parser(
        "report", help="human summary of a stats or benchmark JSON"
    )
    report_cmd.add_argument("file", type=pathlib.Path)
    diff_cmd = obs_sub.add_parser(
        "diff", help="compare two stats/benchmark JSONs (CI regression gate)"
    )
    diff_cmd.add_argument("base", type=pathlib.Path)
    diff_cmd.add_argument("other", type=pathlib.Path)
    diff_cmd.add_argument(
        "--fail-over", type=float, default=None, metavar="PCT",
        help="exit 1 when any gated metric regressed by more than PCT%%",
    )
    diff_cmd.add_argument(
        "--keys", choices=["time", "counters", "all"], default="time",
        help="which metric class gates the result (default %(default)s); "
        "'counters' is deterministic for serial solves and makes a "
        "machine-independent gate",
    )
    diff_cmd.add_argument(
        "--min-change", type=float, default=1.0, metavar="PCT",
        help="hide leaves that changed by less than PCT%% "
        "(default %(default)s)",
    )
    export_cmd = obs_sub.add_parser(
        "export", help="convert a stats JSON to a standard format"
    )
    export_cmd.add_argument("file", type=pathlib.Path)
    export_cmd.add_argument(
        "--format", choices=["prometheus", "chrome"], required=True,
        help="prometheus: text exposition format; chrome: trace event "
        "JSON for chrome://tracing or Perfetto",
    )
    export_cmd.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write here instead of stdout",
    )

    args = parser.parse_args(argv)
    if args.command == "solve":
        return _run_solve(args)
    if args.command == "check":
        return _run_check(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "analyze":
        return _run_analyze(args)
    if args.command == "graph":
        return _run_graph(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "corpus":
        return _run_corpus(args)
    if args.command == "obs":
        return _run_obs(args)
    parser.error("unknown command")
    return 2


def _print_dsl_error(file: pathlib.Path, error: DslError) -> None:
    """Render a parse/semantic error as its stable diagnostic."""
    code = getattr(error, "code", "D001")
    print(
        f"{file}:{error.line}: error[{code}]: {error.message}",
        file=sys.stderr,
    )


def _run_check(args: argparse.Namespace) -> int:
    try:
        text = args.file.read_text()
    except OSError as error:
        print(f"dprle: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    return _run_observed(args, lambda: _check_and_print(args, text))


def _check_and_print(args: argparse.Namespace, text: str) -> int:
    from ..check import Severity, check_problem, report_from_error

    with obs.span("check"):
        try:
            report = check_problem(parse_problem(text))
            parse_failed = False
        except DslError as error:
            report = report_from_error(error)
            parse_failed = True
    if args.json:
        print(report.to_json(str(args.file)))
    else:
        print(report.render(str(args.file)))
    if parse_failed:
        return 2
    if args.fail_on is not None and report.at_least(
        Severity.parse(args.fail_on)
    ):
        return 1
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """The ``dprle lint`` subcommand.

    Exit codes follow ``dprle check``: 2 for IO/parse failures (missing
    paths, unparseable baseline, L000 findings), 1 when ``--fail-on`` is
    reached or the baseline has stale entries, 0 otherwise.
    """
    import json as json_mod

    from ..lint import (
        Severity as LintSeverity,
        apply_baseline,
        load_baseline,
        run_lint,
        write_baseline,
    )

    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    report = run_lint([str(p) for p in args.paths], select=select)
    has_io_errors = any(f.code == "L000" for f in report.findings)

    if args.write_baseline is not None:
        written = write_baseline(report, args.write_baseline)
        print(
            f"wrote {written} baseline entries to {args.write_baseline}",
            file=sys.stderr,
        )

    if args.baseline is not None:
        try:
            entries = load_baseline(args.baseline)
        except (OSError, ValueError, json_mod.JSONDecodeError) as error:
            print(
                f"dprle: cannot load baseline {args.baseline}: {error}",
                file=sys.stderr,
            )
            return 2
        report = apply_baseline(report, entries)

    if args.json:
        print(report.to_json())
    else:
        print(report.render())

    if has_io_errors:
        return 2
    if args.fail_on is not None:
        if report.at_least(LintSeverity.parse(args.fail_on)):
            return 1
        if report.stale_baseline:
            return 1
    return 0


def _run_graph(args: argparse.Namespace) -> int:
    try:
        text = args.file.read_text()
    except OSError as error:
        print(f"dprle: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
    except DslError as error:
        _print_dsl_error(args.file, error)
        return 2
    return _run_observed(args, lambda: _graph_and_print(args, problem))


def _graph_and_print(args: argparse.Namespace, problem) -> int:
    from ..constraints.depgraph import build_graph

    with obs.span("graph"):
        graph, _ = build_graph(problem)
        dot = graph.to_dot(name=args.file.stem.replace("-", "_"))
    if args.out is not None:
        args.out.write_text(dot + "\n")
        print(f"wrote {args.out}")
    else:
        print(dot)
    return 0


def _run_solve(args: argparse.Namespace) -> int:
    try:
        text = args.file.read_text()
    except OSError as error:
        print(f"dprle: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
    except DslError as error:
        _print_dsl_error(args.file, error)
        return 2
    return _run_observed(args, lambda: _solve_and_print(args, problem))


def _solve_and_print(args: argparse.Namespace, problem) -> int:
    # dprle-lint: disable=L040 -- user-facing elapsed printed with the answer; span timing is the telemetry copy
    started = time.perf_counter()
    solutions = solve(
        problem,
        max_solutions=args.max_solutions,
        limits=_cli_limits(args),
    )
    # dprle-lint: disable=L040 -- user-facing elapsed printed with the answer; span timing is the telemetry copy
    elapsed = time.perf_counter() - started

    if not solutions.satisfiable:
        print("no assignments found")
        print(f"({elapsed:.3f}s)")
        return 1
    for index, assignment in enumerate(solutions.nonempty(), start=1):
        print(f"assignment {index}:")
        for name, machine in assignment.items():
            if args.witness_only:
                print(f"  {name} = {assignment.witness(name)!r}")
            else:
                print(f"  {name} <- /{assignment.regex_str(name)}/")
    print(f"({len(solutions)} assignment(s), {elapsed:.3f}s)")
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    try:
        source = args.file.read_text()
    except OSError as error:
        print(f"dprle: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    return _run_observed(args, lambda: _analyze_and_print(args, source))


def _analyze_and_print(args: argparse.Namespace, source: str) -> int:
    attack = next(a for a in ALL_ATTACKS if a.name == args.attack)
    report = analyze_source(
        source,
        file_name=str(args.file),
        attack=attack,
        first_only=not args.all_sinks,
        limits=_cli_limits(args),
        check=args.check,
    )
    print(f"{args.file}: |FG| = {report.num_blocks} basic blocks")
    if not report.findings:
        print("  no sink queries found")
        return 0
    vulnerable = False
    for finding in report.findings:
        status = "VULNERABLE" if finding.vulnerable else "safe"
        print(
            f"  sink at line {finding.sink_line}: {status} "
            f"(|C| = {finding.num_constraints}, "
            f"TS = {finding.solve_seconds:.3f}s)"
        )
        for name, value in sorted(finding.exploit_inputs.items()):
            if value:
                print(f"    {name} = {value!r}")
        for diagnostic in finding.diagnostics:
            print(f"    {diagnostic.render()}")
        vulnerable = vulnerable or finding.vulnerable
    return 1 if vulnerable else 0


def _load_stats(path: pathlib.Path) -> Optional[dict]:
    try:
        loaded = json.loads(path.read_text())
    except OSError as error:
        print(f"dprle: cannot read {path}: {error}", file=sys.stderr)
        return None
    except json.JSONDecodeError as error:
        print(f"dprle: {path} is not valid JSON: {error}", file=sys.stderr)
        return None
    if not isinstance(loaded, dict):
        print(f"dprle: {path}: expected a JSON object", file=sys.stderr)
        return None
    return loaded


def _run_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "report":
        snapshot = _load_stats(args.file)
        if snapshot is None:
            return 2
        print(obs.render_report(snapshot), end="")
        return 0
    if args.obs_command == "diff":
        base = _load_stats(args.base)
        other = _load_stats(args.other)
        if base is None or other is None:
            return 2
        result = obs.diff_snapshots(
            base, other, fail_over=args.fail_over, keys=args.keys
        )
        print(result.render(min_percent=args.min_change), end="")
        return 1 if result.failed else 0
    if args.obs_command == "export":
        snapshot = _load_stats(args.file)
        if snapshot is None:
            return 2
        if args.format == "prometheus":
            rendered = obs.to_prometheus(snapshot)
        else:
            rendered = json.dumps(obs.to_chrome_trace(snapshot), indent=2) + "\n"
        if args.out is not None:
            try:
                args.out.write_text(rendered)
            except OSError as error:
                print(
                    f"dprle: cannot write {args.out}: {error}", file=sys.stderr
                )
                return 2
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(rendered, end="")
        return 0
    return 2


def _run_serve(args: argparse.Namespace) -> int:
    from ..server import ServerConfig, serve

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            cache_db=args.cache_db,
            workers=args.workers,
            plan=args.plan,
            cache_entries=args.cache_entries,
            batch_window=max(args.batch_window_ms, 0.0) / 1000.0,
            max_batch=args.max_batch,
            default_deadline=(
                None
                if args.default_deadline_ms is None
                else max(args.default_deadline_ms, 0.0) / 1000.0
            ),
            journal=args.journal,
            check_only=args.check_only,
        )
    except ValueError as error:
        print(f"dprle serve: {error}", file=sys.stderr)
        return 2
    return serve(config)


def _run_corpus(args: argparse.Namespace) -> int:
    apps = build_corpus(scale=args.scale)
    for app in apps:
        app_dir = args.out / app.name
        app_dir.mkdir(parents=True, exist_ok=True)
        for item in app.files:
            (app_dir / item.name).write_text(item.source)
        print(
            f"{app.name} {app.version}: {len(app.files)} files, "
            f"{app.loc} LOC, {len(app.vulnerable_files)} vulnerable "
            f"-> {app_dir}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
