"""L001 — kernel purity: machine-returning code must not mutate or
alias its inputs.

The contract (docs/BACKENDS.md): the automata kernels and every
``Nfa`` / ``Dfa`` method that returns a *new* machine are pure in their
operands — the result shares no mutable structure with the inputs, and
the inputs are byte-identical afterwards.  PR 6 shipped exactly this bug:
``Dfa.complemented()`` copied the transition dict but aliased the inner
move lists, so mutating the complement corrupted the original — caught
dynamically, long after review.

Scope: functions whose return annotation mentions ``Nfa``/``Dfa`` that
are methods of ``Nfa``/``Dfa`` or module-level functions taking a
machine parameter.  Flagged patterns:

* stores through a parameter (``self.starts = ...``,
  ``other._edges[s] = ...``, ``aug`` assigns);
* mutator method calls rooted at a parameter
  (``self.finals.add(...)``, ``nfa._edges[s].append(...)``);
* shallow copies of deep containers (``dict(self.transitions)``,
  ``self._edges.copy()`` — the inner move lists stay shared);
* dict comprehensions over a deep container that re-use the value
  unwrapped (``{s: moves for s, moves in self.transitions.items()}`` —
  the PR 6 pattern);
* passing a mutable machine attribute straight into a machine
  constructor or returning it (``Nfa(starts=self.starts, ...)``).

A parameter that is rebound in the function body (``nfa = nfa.copy()``)
is treated as local from then on.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..diagnostics import LintFinding
from ..engine import FileContext
from ..astutil import call_name, returns_machine, root_name, walk_scope
from . import Rule, register_rule

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "discard", "remove",
    "clear", "pop", "popitem", "setdefault", "sort", "reverse",
    "difference_update", "intersection_update", "symmetric_difference_update",
})

#: Machine attributes whose values are (or contain) mutable containers.
MUTABLE_ATTRS = frozenset({
    "transitions", "_edges", "edges", "starts", "finals", "accepting", "moves",
})

#: Containers-of-containers: a one-level copy still aliases the inner
#: move lists — ``dict(x)`` / ``x.copy()`` is not enough.
DEEP_ATTRS = frozenset({"transitions", "_edges"})

#: Attributes that are immutable by contract and safe to share.
SAFE_ATTRS = frozenset({"alphabet", "start", "name", "label", "universe"})

_MACHINE_CLASSES = frozenset({"Nfa", "Dfa"})
_CONSTRUCTORS = frozenset({"Nfa", "Dfa"})


def _kernel_functions(
    tree: ast.Module,
) -> Iterator[tuple[FunctionNode, str]]:
    """Yield (function, context-label) pairs in L001 scope."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if node.name not in _MACHINE_CLASSES:
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if returns_machine(item):
                        yield item, f"{node.name}.{item.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if returns_machine(node) and _takes_machine(node):
                yield node, node.name


def _takes_machine(func: FunctionNode) -> bool:
    for arg in list(func.args.args) + list(func.args.kwonlyargs):
        annotation = arg.annotation
        if annotation is None:
            continue
        text = ast.dump(annotation)
        if "'Nfa'" in text or "'Dfa'" in text:
            return True
    return False


def _param_names(func: FunctionNode) -> set[str]:
    names = {a.arg for a in func.args.args}
    names |= {a.arg for a in func.args.kwonlyargs}
    names |= {a.arg for a in func.args.posonlyargs}
    if func.args.vararg:
        names.add(func.args.vararg.arg)
    if func.args.kwarg:
        names.add(func.args.kwarg.arg)
    return names


def _rebound_names(func: FunctionNode) -> set[str]:
    rebound: set[str] = set()
    for node in walk_scope(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.withitem,)) and node.optional_vars:
            targets = [node.optional_vars]
        for target in targets:
            rebound.update(_bare_names(target))
    return rebound


def _bare_names(target: ast.expr) -> Iterator[str]:
    """Names a target *rebinds* — not names mutated through
    (``self.finals = ...`` stores through ``self``, it does not rebind
    it)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bare_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bare_names(target.value)


def _param_attr(node: ast.AST, params: set[str]) -> tuple[str, str] | None:
    """``(param, attr)`` when node is ``param.attr`` (one level)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in params
    ):
        return node.value.id, node.attr
    return None


def _check_function(
    ctx: FileContext, func: FunctionNode, label: str
) -> Iterator[LintFinding]:
    params = _param_names(func) - _rebound_names(func)
    if not params:
        return

    for node in walk_scope(func):
        # 1. Stores through a parameter.
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = root_name(target)
                    if root in params:
                        yield ctx.finding(
                            "L001",
                            target,
                            f"{label} stores through parameter {root!r}; "
                            "machine-returning code must not mutate its inputs",
                            hint="build the result on a fresh machine, not in place",
                        )

        elif isinstance(node, ast.Call):
            name = call_name(node)
            # 2. In-place mutator rooted at a parameter.
            if name in MUTATOR_METHODS and isinstance(node.func, ast.Attribute):
                root = root_name(node.func.value)
                if root in params:
                    yield ctx.finding(
                        "L001",
                        node,
                        f"{label} calls .{name}() on state reachable from "
                        f"parameter {root!r}",
                        hint="copy before mutating; inputs must stay byte-identical",
                    )
            # 3a. ``x.copy()`` on a deep container.
            if name == "copy" and isinstance(node.func, ast.Attribute):
                pa = _param_attr(node.func.value, params)
                if pa and pa[1] in DEEP_ATTRS:
                    yield ctx.finding(
                        "L001",
                        node,
                        f"{label}: shallow .copy() of {pa[0]}.{pa[1]} aliases "
                        "the inner move lists",
                        hint="copy one level deeper: "
                        "{s: list(moves) for s, moves in ...items()}",
                    )
            # 3b. ``dict(x.transitions)`` — same shallow-copy alias.
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "dict"
                and node.args
            ):
                pa = _param_attr(node.args[0], params)
                if pa and pa[1] in DEEP_ATTRS:
                    yield ctx.finding(
                        "L001",
                        node,
                        f"{label}: dict({pa[0]}.{pa[1]}) is a shallow copy; "
                        "the inner move lists stay shared",
                        hint="copy one level deeper: "
                        "{s: list(moves) for s, moves in ...items()}",
                    )
            # 5a. Mutable machine attribute passed bare to a constructor
            # (``Dfa(...)`` or through a module, ``dfa_mod.Dfa(...)``).
            func = node.func
            ctor = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if ctor in _CONSTRUCTORS:
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    pa = _param_attr(arg, params)
                    if pa and pa[1] in MUTABLE_ATTRS:
                        yield ctx.finding(
                            "L001",
                            arg,
                            f"{label}: {pa[0]}.{pa[1]} passed into "
                            f"{ctor}(...) without copying — result "
                            "aliases the input's mutable state",
                            hint=f"wrap it: set({pa[0]}.{pa[1]}) / list(...) / "
                            "a per-entry copy",
                        )

        # 4. The PR 6 pattern: dict comprehension over a deep container
        # whose value is re-used unwrapped.
        elif isinstance(node, ast.DictComp):
            yield from _check_dictcomp(ctx, node, params, label)

        # 5b. Returning a mutable machine attribute outright.
        elif isinstance(node, ast.Return) and node.value is not None:
            pa = _param_attr(node.value, params)
            if pa and pa[1] in MUTABLE_ATTRS:
                yield ctx.finding(
                    "L001",
                    node,
                    f"{label} returns {pa[0]}.{pa[1]} — caller receives a "
                    "live alias of the input's mutable state",
                    hint="return a copy",
                )


def _check_dictcomp(
    ctx: FileContext, comp: ast.DictComp, params: set[str], label: str
) -> Iterator[LintFinding]:
    for gen in comp.generators:
        source = gen.iter
        if not (isinstance(source, ast.Call) and call_name(source) == "items"):
            continue
        assert isinstance(source.func, ast.Attribute)
        pa = _param_attr(source.func.value, params)
        if not pa or pa[1] not in DEEP_ATTRS:
            continue
        # Which name is bound to the container value?
        if not (
            isinstance(gen.target, ast.Tuple) and len(gen.target.elts) == 2
        ):
            continue
        value_target = gen.target.elts[1]
        if not isinstance(value_target, ast.Name):
            continue
        if (
            isinstance(comp.value, ast.Name)
            and comp.value.id == value_target.id
        ):
            yield ctx.finding(
                "L001",
                comp,
                f"{label}: dict comprehension over {pa[0]}.{pa[1]}.items() "
                f"re-uses {value_target.id!r} unwrapped — the copy aliases "
                "the inner move lists (the PR 6 Dfa.complemented() bug)",
                hint=f"wrap the value: list({value_target.id})",
            )


def _check(ctx: FileContext) -> Iterator[LintFinding]:
    for func, label in _kernel_functions(ctx.tree):
        yield from _check_function(ctx, func, label)


register_rule(
    Rule(
        name="kernel-purity",
        codes=("L001",),
        description="machine-returning kernels must not mutate or alias inputs",
        check=_check,
    )
)
