"""Deciding language inclusion and equivalence.

Inclusion ``L(a) ⊆ L(b)`` is the oracle both for the solution checker
(:mod:`repro.solver.verify`) and for the test suite.  Rather than
building the full complement of ``b`` we determinize ``b`` *lazily*
along the reachable part of the product with ``a`` — the standard
on-the-fly inclusion check, which returns a concrete counterexample
string when inclusion fails.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .. import obs
from ..cache import active_cache
from .charset import minterms
from .nfa import Nfa

__all__ = ["counterexample", "is_subset", "equivalent"]


def counterexample(a: Nfa, b: Nfa) -> Optional[str]:
    """A string in ``L(a) \\ L(b)``, or None when ``L(a) ⊆ L(b)``.

    Explores pairs ``(Sa, Sb)`` of ε-closed NFA state *sets* in BFS
    order, so the returned counterexample is one of minimal length.
    """
    obs.count_operation("inclusion_check")
    if a.alphabet != b.alphabet:
        raise ValueError("cannot compare machines over different alphabets")
    with obs.span(
        "inclusion_check", states_a=a.num_states, states_b=b.num_states
    ) as sp:
        result = _counterexample(a, b)
        sp.set("included", result is None)
        return result


def _counterexample(a: Nfa, b: Nfa) -> Optional[str]:
    start = (a.epsilon_closure(a.starts), b.epsilon_closure(b.starts))
    seen: set[tuple[frozenset[int], frozenset[int]]] = {start}
    queue: deque[tuple[frozenset[int], frozenset[int], str]] = deque(
        [(start[0], start[1], "")]
    )
    while queue:
        sa, sb, prefix = queue.popleft()
        obs.visit_states(1)
        if (sa & a.finals) and not (sb & b.finals):
            return prefix
        # Minterm over *both* machines' outgoing labels so each block is
        # behaviourally uniform for a and for b; blocks from a's labels
        # alone could straddle a distinction that only b makes.
        labels = a.labels_from(sa) + b.labels_from(sb)
        for block in minterms(labels):
            ch = block.sample()
            ta = a.step(sa, ch)
            if not ta:
                continue
            tb = b.step(sb, ch)
            key = (ta, tb)
            if key not in seen:
                seen.add(key)
                queue.append((ta, tb, prefix + ch))
    return None


def is_subset(a: Nfa, b: Nfa) -> bool:
    """Decide ``L(a) ⊆ L(b)``.

    Memoized by the active language cache: when both operands'
    signatures are already known, equal signatures short-circuit to
    True and other verdicts are remembered per signature pair — which
    collapses the solver's repeated subsumption scans.  Otherwise the
    lazy on-the-fly check below runs (signatures are never forced, so
    determinization blowup is no worse than uncached) and the verdict
    is memoized structurally.
    """
    cache = active_cache()
    if cache is not None:
        return cache.is_subset(a, b)
    return counterexample(a, b) is None


def equivalent(a: Nfa, b: Nfa) -> bool:
    """Decide ``L(a) = L(b)``.

    With a language cache active and both signatures already known this
    is a signature comparison: the canonical-form digests agree exactly
    when the languages do.  Otherwise the cache falls back to the lazy
    bidirectional inclusion check and memoizes the verdict.
    """
    cache = active_cache()
    if cache is not None:
        return cache.equivalent(a, b)
    return is_subset(a, b) and is_subset(b, a)
