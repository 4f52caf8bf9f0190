"""Deciding language inclusion and equivalence.

Inclusion ``L(a) ⊆ L(b)`` is the oracle both for the solution checker
(:mod:`repro.solver.verify`) and for the test suite.  Rather than
building the full complement of ``b`` we determinize ``b`` *lazily*
along the reachable part of the product with ``a`` — the standard
on-the-fly inclusion check, which returns a concrete counterexample
string when inclusion fails.

The search does work only for the pairs it reaches, and does not
repeat work that depends on label values alone: a label set's minterm
blocks, their representative characters and which blocks each label
covers are memoized by value across calls (:data:`_blocks_memo`).
There is no up-front pass over either machine, so a check that fails
early stays cheap.  State sets are sorted tuples of ints, which the
cyclic garbage collector stops tracking, so a search over ~10⁵ pairs
does not make every collection walk them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .. import obs
from ..cache import active_cache
from .charset import CharSet, minterms
from .nfa import Edge, Nfa

__all__ = ["counterexample", "is_subset", "equivalent"]

#: Value-keyed memo of the inclusion search: a label set maps to the
#: smallest character of each of its minterm blocks, in block order,
#: and to the indices of the blocks each label covers.  It only skips
#: recomputing a pure function of its key, so results do not depend on
#: what earlier calls saw (worker processes simply grow their own).
#: Like the kernels' minterm-space memo it is bounded by wholesale
#: clearing, which costs at most one recomputation per retained entry.
_MEMO_LIMIT = 4096
_blocks_memo: dict[
    frozenset[CharSet], tuple[list[str], dict[CharSet, list[int]]]
] = {}


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
    a_edges = a._edges
    b_edges = b._edges
    a_finals = a.finals
    b_finals = b.finals
    start = (_closed(a_edges, set(a.starts)), _closed(b_edges, set(b.starts)))
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = {start}
    queue: deque[tuple[tuple[int, ...], tuple[int, ...], str]] = deque(
        [(start[0], start[1], "")]
    )
    visited = 0
    try:
        while queue:
            sa, sb, prefix = queue.popleft()
            visited += 1
            if not a_finals.isdisjoint(sa) and b_finals.isdisjoint(sb):
                return prefix
            out_a = _labelled_edges(a_edges, sa)
            out_b = _labelled_edges(b_edges, sb)
            # Minterm over *both* machines' outgoing labels so each block
            # is behaviourally uniform for a and for b; blocks from a's
            # labels alone could straddle a distinction only b makes.
            chars, covers = _blocks(
                frozenset([label for label, _ in out_a + out_b])
            )
            moved_a = _moves(out_a, covers, len(chars))
            moved_b: Optional[list[set[int]]] = None
            for index, ch in enumerate(chars):
                if not moved_a[index]:
                    continue
                if moved_b is None:
                    moved_b = _moves(out_b, covers, len(chars))
                key = (
                    _closed(a_edges, moved_a[index]),
                    _closed(b_edges, moved_b[index]),
                )
                if key not in seen:
                    seen.add(key)
                    queue.append((key[0], key[1], prefix + ch))
        return None
    finally:
        obs.visit_states(visited)


def _blocks(
    labels: frozenset[CharSet],
) -> tuple[list[str], dict[CharSet, list[int]]]:
    """The smallest character of each minterm block of ``labels``, in
    block order, and for each label the indices of the blocks it
    covers (memoized).  A block lies entirely inside or outside every
    label, so containing the block's smallest character decides it."""
    found = _blocks_memo.get(labels)
    if found is None:
        if len(_blocks_memo) >= _MEMO_LIMIT:
            _blocks_memo.clear()
        reps = [block.min_char() for block in minterms(labels)]
        found = (
            [chr(cp) for cp in reps],
            {
                label: [k for k, cp in enumerate(reps) if label.contains(cp)]
                for label in labels
            },
        )
        _blocks_memo[labels] = found
    return found


def _labelled_edges(
    edges: dict[int, list[Edge]], states: tuple[int, ...]
) -> list[tuple[CharSet, int]]:
    """``(label, target)`` of every non-ε edge leaving ``states``."""
    return [
        (label, dst)
        for state in states
        for label, dst, _ in edges[state]
        if label is not None
    ]


def _moves(
    out: list[tuple[CharSet, int]], covers: dict[CharSet, list[int]], count: int
) -> list[set[int]]:
    """Per minterm block, the targets of the edges in ``out`` on it."""
    moved: list[set[int]] = [set() for _ in range(count)]
    for label, dst in out:
        for index in covers[label]:
            moved[index].add(dst)
    return moved


def _closed(edges: dict[int, list[Edge]], states: set[int]) -> tuple[int, ...]:
    """The ε-closure of ``states`` (extended in place), sorted."""
    # dprle-lint: disable=L030 -- traversal order only; the result is sorted
    stack = list(states)
    while stack:
        for label, dst, _ in edges[stack.pop()]:
            if label is None and dst not in states:
                states.add(dst)
                stack.append(dst)
    return tuple(sorted(states))


def is_subset(a: Nfa, b: Nfa) -> bool:
    """Decide ``L(a) ⊆ L(b)``.

    Memoized by the active language cache: the lazy on-the-fly check
    below runs once per pair of structural digests (equal digests
    short-circuit to True), which collapses the solver's repeated
    subsumption scans without forcing any determinization.
    """
    cache = active_cache()
    if cache is not None:
        return cache.is_subset(a, b)
    return counterexample(a, b) is None


def equivalent(a: Nfa, b: Nfa) -> bool:
    """Decide ``L(a) = L(b)`` as two inclusions.

    With a language cache active both verdicts are memoized through
    :func:`is_subset`.
    """
    return is_subset(a, b) and is_subset(b, a)
