"""L002 — cache identity: no cache-keyed ops in identity-sensitive
regions.

:class:`repro.cache.LangCache` keys ``minimize`` (and its kernel
``minimize_nfa``), ``intersect`` and ``is_subset`` (and so
``equivalent``, two inclusions) by the operands' *tag-blind* structural
digests, with a commutative key for ``intersect``: a hit may return the
product of the operands in the other order, with bridge tags from
whatever machine first filled the entry, and a persistent store hands
back freshly minted tags (minimization collapses structure by design
anyway).  All of that is sound wherever only the language is consumed
— and unsound in GCI stage 1, where the start/final structure and the
tagged edges of leaf machines determine the stage-4 bridge images.
Routing stage-1 intersections through the cache once made answers
depend on cache history.

The rule is marker-driven: a function containing a
``# dprle-lint: identity-sensitive`` comment is an identity-sensitive
region, and every call to one of these operations inside it is
flagged.  The sanctioned alternative — the uncached, structure-faithful
``ops.product`` — passes clean, as do ``eliminate_epsilon`` (applied
to untagged constants), the kernels that never consult the cache
(``determinize``, ``complement``, the quotients, ``minimize_dfa``) and
plain machine methods (``trim`` etc.).
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..diagnostics import LintFinding
from ..engine import FileContext
from ..astutil import call_name, walk_scope
from . import Rule, register_rule

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Call targets that consult the language cache under a tag-blind key:
#: ``LangCache.minimize`` and its kernel ``minimize_nfa``, ``intersect``,
#: ``is_subset`` and ``equivalent`` (which is two ``is_subset`` calls).
CACHE_KEYED = frozenset({
    "minimize",
    "minimize_nfa",
    "intersect",
    "is_subset",
    "equivalent",
})


def _marked_functions(ctx: FileContext) -> Iterator[FunctionNode]:
    if not ctx.identity_markers:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        end = getattr(node, "end_lineno", node.lineno)
        if any(node.lineno <= mark <= end for mark in ctx.identity_markers):
            yield node


def _check(ctx: FileContext) -> Iterator[LintFinding]:
    seen: set[int] = set()
    for func in _marked_functions(ctx):
        for node in walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            name = call_name(node)
            if name in CACHE_KEYED:
                yield ctx.finding(
                    "L002",
                    node,
                    f"cache-keyed operation {name!r} called inside the "
                    f"identity-sensitive region {func.name!r}; a cache hit "
                    "may substitute a language-equal machine with "
                    "different bridge structure (answers would depend on "
                    "cache history)",
                    hint="use the uncached, structure-faithful ops.product, "
                    "or suppress with a one-line soundness argument",
                )


register_rule(
    Rule(
        name="cache-identity",
        codes=("L002",),
        description="no cache-keyed ops in identity-sensitive regions",
        check=_check,
    )
)
