"""L010 — fork safety: only module-level callables cross the process
boundary.

:mod:`repro.parallel` submits work to a ``ProcessPoolExecutor``; the
ROADMAP's distributed executors (item 4) widen the same boundary to
other machines.  Payloads must pickle: lambdas and nested closures fail
outright under spawn, and bound methods drag their whole receiver —
including unpicklable contextvars, live caches, and executors — across
the fork.  The sanctioned shape is the existing ``_run_chunk`` pattern:
a module-level function taking plain-data arguments, with caches and
telemetry sinks dropped and rebuilt in the worker.

Flagged: ``executor.submit(fn, ...)`` / ``executor.map(fn, ...)`` where
``fn`` is a lambda, an attribute access (bound method), or a name bound
to a function nested inside the submitting function.  Names that
resolve to module-level functions or imports pass.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..diagnostics import LintFinding
from ..engine import FileContext
from ..astutil import walk_scope
from . import Rule, register_rule

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_SUBMIT_METHODS = frozenset({"submit", "map"})


def _module_level_callables(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _nested_defs(func: FunctionNode) -> set[str]:
    return {
        node.name
        for node in walk_scope(func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _functions(tree: ast.Module) -> Iterator[FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _check_submit(
    ctx: FileContext,
    call: ast.Call,
    module_names: set[str],
    nested: set[str],
) -> Iterator[LintFinding]:
    if not call.args:
        return
    payload = call.args[0]
    method = call.func.attr if isinstance(call.func, ast.Attribute) else "submit"
    if isinstance(payload, ast.Lambda):
        yield ctx.finding(
            "L010",
            payload,
            f"lambda submitted to executor.{method}(); lambdas do not "
            "pickle across the process boundary",
            hint="hoist the payload to a module-level function "
            "(the _run_chunk pattern)",
        )
    elif isinstance(payload, ast.Attribute):
        yield ctx.finding(
            "L010",
            payload,
            f"bound method {payload.attr!r} submitted to "
            f"executor.{method}(); the receiver (caches, contextvars, "
            "executors) would be pickled into every worker",
            hint="hoist the payload to a module-level function taking "
            "plain-data arguments",
        )
    elif isinstance(payload, ast.Name):
        name = payload.id
        if name in nested and name not in module_names:
            yield ctx.finding(
                "L010",
                payload,
                f"nested function {name!r} submitted to "
                f"executor.{method}(); closures do not pickle under spawn",
                hint="hoist it to module level; pass captured state as "
                "explicit plain-data arguments",
            )


def _check(ctx: FileContext) -> Iterator[LintFinding]:
    module_names = _module_level_callables(ctx.tree)
    for func in _functions(ctx.tree):
        nested = _nested_defs(func)
        for node in walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SUBMIT_METHODS
            ):
                # `.map` is also a builtin-ish name on many objects; only
                # executor-like receivers matter, but the receiver's type
                # is unknown statically — restrict to receivers whose
                # name smells like an executor or pool.
                receiver = node.func.value
                base = receiver.attr if isinstance(receiver, ast.Attribute) else (
                    receiver.id if isinstance(receiver, ast.Name) else ""
                )
                lowered = base.lower()
                if not any(tok in lowered for tok in ("pool", "executor", "exec")):
                    continue
                yield from _check_submit(ctx, node, module_names, nested)


register_rule(
    Rule(
        name="fork-safety",
        codes=("L010",),
        description="only module-level callables may cross the fork boundary",
        check=_check,
    )
)
