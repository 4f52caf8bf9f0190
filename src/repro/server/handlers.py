"""Request handlers: JSON payloads in, JSON-ready documents out.

These are plain synchronous functions — the daemon's dispatcher runs
them on a worker thread (one job at a time) with the shared language
cache and the server's telemetry sinks active in the calling context,
so everything below is ordinary solver code: the same
:func:`repro.solver.worklist.solve`, :func:`repro.check.check_problem`,
and :func:`repro.analysis.analyzer.analyze_source` entry points the CLI
uses, reshaped for the wire.

Payload validation is strict and failure is structured: anything wrong
with the *request* raises :class:`RequestError` with an HTTP status and
(for DSL problems) the stable ``D``-coded diagnostic, so clients can
tell their own bugs from server faults.
"""

from __future__ import annotations

from typing import Any, Optional

from ..analysis.analyzer import analyze_source
from ..analysis.attacks import ALL_ATTACKS, CONTAINS_QUOTE
from ..constraints.dsl import DslError, parse_problem
from ..solver.gci import GciLimits, SolveLimitExceeded
from ..solver.worklist import solve as solve_problem
from .config import ServerConfig

__all__ = ["QUEUED_KINDS", "RequestError", "run_job"]

#: Endpoints whose requests become jobs on the daemon's queue (the
#: others are answered inline).
QUEUED_KINDS: frozenset[str] = frozenset({"solve", "check", "analyze"})


class RequestError(Exception):
    """A problem with the request itself, carrying its HTTP status."""

    def __init__(self, status: int, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        #: A stable diagnostic code (``D001``-style) when one applies.
        self.code = code


def _dsl_error(error: DslError) -> RequestError:
    code = str(getattr(error, "code", "D001"))
    return RequestError(
        400, f"line {error.line}: {error.message}", code=code
    )


def _string_field(payload: dict[str, Any], name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value:
        raise RequestError(400, f"field {name!r} must be a non-empty string")
    return value


def _opt_int_field(payload: dict[str, Any], name: str) -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(400, f"field {name!r} must be an integer")
    return value


def _opt_str_field(payload: dict[str, Any], name: str) -> Optional[str]:
    value = payload.get(name)
    if value is None:
        return None
    if not isinstance(value, str):
        raise RequestError(400, f"field {name!r} must be a string")
    return value


def _bool_field(payload: dict[str, Any], name: str, default: bool) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise RequestError(400, f"field {name!r} must be a boolean")
    return value


def _query_field(payload: dict[str, Any]) -> Optional[list[str]]:
    value = payload.get("query")
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise RequestError(400, "field 'query' must be a list of strings")
    return list(value)


def _limits(
    payload: dict[str, Any], config: ServerConfig
) -> Optional[GciLimits]:
    """Limits carrying the worker fan-out after the per-request
    override; None when neither the request nor the server sets it."""
    workers = _opt_int_field(payload, "workers")
    if workers is None:
        workers = config.workers
    if workers is None:
        return None
    return GciLimits(workers=workers)


def run_job(
    kind: str, payload: dict[str, Any], config: ServerConfig
) -> dict[str, Any]:
    """Execute one queued job; the daemon wraps this in the
    ``server_request`` span and the shared cache activation.  A solve
    over a :class:`GciLimits` bound is the request's problem, not a
    server fault: 422 with the limit's D-code."""
    try:
        if kind == "solve":
            return _run_solve(payload, config)
        if kind == "check":
            return _run_check(payload)
        if kind == "analyze":
            return _run_analyze(payload, config)
    except SolveLimitExceeded as error:
        raise RequestError(422, str(error), code=error.code) from error
    raise RequestError(404, f"unknown endpoint kind {kind!r}")


def _run_solve(
    payload: dict[str, Any], config: ServerConfig
) -> dict[str, Any]:
    source = _string_field(payload, "source")
    try:
        problem = parse_problem(source)
    except DslError as error:
        raise _dsl_error(error) from error
    solutions = solve_problem(
        problem,
        query=_query_field(payload),
        max_solutions=_opt_int_field(payload, "max_solutions"),
        limits=_limits(payload, config),
    )
    assignments: list[dict[str, dict[str, str]]] = []
    for assignment in solutions.nonempty():
        entry: dict[str, dict[str, str]] = {}
        for name, _machine in assignment.items():
            witness = assignment.witness(name)
            entry[name] = {
                "regex": assignment.regex_str(name),
                "witness": witness if witness is not None else "",
            }
        assignments.append(entry)
    return {
        "satisfiable": solutions.satisfiable,
        "count": len(assignments),
        "assignments": assignments,
    }


def _run_check(payload: dict[str, Any]) -> dict[str, Any]:
    from ..check import check_problem

    source = _string_field(payload, "source")
    try:
        report = check_problem(parse_problem(source))
    except DslError as error:
        raise _dsl_error(error) from error
    return {"report": report.to_dict("<request>")}


def _run_analyze(
    payload: dict[str, Any], config: ServerConfig
) -> dict[str, Any]:
    source = _string_field(payload, "source")
    attack_name = _opt_str_field(payload, "attack") or CONTAINS_QUOTE.name
    attack = next((a for a in ALL_ATTACKS if a.name == attack_name), None)
    if attack is None:
        known = ", ".join(sorted(a.name for a in ALL_ATTACKS))
        raise RequestError(
            400, f"unknown attack {attack_name!r} (known: {known})"
        )
    report = analyze_source(
        source,
        file_name="<request>",
        attack=attack,
        first_only=not _bool_field(payload, "all_sinks", False),
        limits=_limits(payload, config),
        check=_bool_field(payload, "check", False),
    )
    findings = [
        {
            "sink_line": finding.sink_line,
            "vulnerable": finding.vulnerable,
            "num_constraints": finding.num_constraints,
            "solve_seconds": finding.solve_seconds,
            "exploit_inputs": dict(finding.exploit_inputs),
            "diagnostics": [
                diagnostic.to_dict() for diagnostic in finding.diagnostics
            ],
        }
        for finding in report.findings
    ]
    return {
        "num_blocks": report.num_blocks,
        "vulnerable": report.vulnerable,
        "findings": findings,
    }
