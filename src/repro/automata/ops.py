"""The automata algebra used by the decision procedure.

The paper's CI construction (Fig. 3) is ``M5 = (M1 · M2) ∩ M3`` where
the concatenation introduces a single marked ε-transition and the
intersection is the cross-product construction.  This module provides
those two operations plus the supporting algebra (union, star,
complement-based difference, reversal, and the universal quotients used
by the extensions module).

Concatenation-bridge bookkeeping:  :func:`concat` tags the bridging
ε-edge(s) with a :class:`~repro.automata.nfa.BridgeTag`; :func:`product`
propagates tags onto the image edges, so the CI slicer can recover the
bridge crossings of *any* concatenation nested anywhere inside a tower
of products simply by scanning for the tag.
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..cache import active_cache
from . import bitset
from .dfa import complement
from .nfa import BridgeTag, Nfa

__all__ = [
    "embed",
    "union",
    "concat",
    "star",
    "plus",
    "optional",
    "eliminate_epsilon",
    "product",
    "intersect",
    "difference",
    "reverse",
    "prefix_closure",
    "suffix_closure",
    "factor_closure",
    "left_quotient",
    "right_quotient",
]


def embed(target: Nfa, source: Nfa) -> dict[int, int]:
    """Copy ``source``'s states and transitions into ``target``.

    Returns the state map ``source state -> target state``.  Start and
    final markings of ``target`` are left untouched; callers wire them
    up explicitly.
    """
    obs.count_operation("embed")
    if source.alphabet != target.alphabet:
        raise ValueError("cannot embed machines over different alphabets")
    mapping = {state: target.add_state() for state in source.states}
    for src, edge in source.edges():
        target.add_transition(mapping[src], edge.label, mapping[edge.dst], edge.tag)
    obs.visit_states(source.num_states)
    return mapping


def union(a: Nfa, b: Nfa) -> Nfa:
    """Machine for ``L(a) ∪ L(b)``."""
    obs.count_operation("union")
    out = Nfa(a.alphabet)
    map_a = embed(out, a)
    map_b = embed(out, b)
    start = out.add_state()
    for old in a.starts:
        out.add_epsilon(start, map_a[old])
    for old in b.starts:
        out.add_epsilon(start, map_b[old])
    out.starts = {start}
    out.finals = {map_a[s] for s in a.finals} | {map_b[s] for s in b.finals}
    return out


def concat(a: Nfa, b: Nfa, tag: Optional[BridgeTag] = None) -> Nfa:
    """Machine for ``L(a) · L(b)`` (paper Fig. 3, line 6).

    Every final state of ``a`` gets an ε-edge to every start state of
    ``b``; all these edges carry the same ``tag`` (a fresh one if none
    is supplied), identifying them as crossings of *this* concatenation.
    """
    obs.count_operation("concat")
    if tag is None:
        tag = BridgeTag()
    out = Nfa(a.alphabet)
    map_a = embed(out, a)
    map_b = embed(out, b)
    for fin in a.finals:
        for st in b.starts:
            out.add_epsilon(map_a[fin], map_b[st], tag)
    out.starts = {map_a[s] for s in a.starts}
    out.finals = {map_b[s] for s in b.finals}
    return out


def star(a: Nfa) -> Nfa:
    """Machine for ``L(a)*``."""
    obs.count_operation("star")
    out = Nfa(a.alphabet)
    mapping = embed(out, a)
    hub = out.add_state()
    for st in a.starts:
        out.add_epsilon(hub, mapping[st])
    for fin in a.finals:
        out.add_epsilon(mapping[fin], hub)
    out.starts = {hub}
    out.finals = {hub}
    return out


def plus(a: Nfa) -> Nfa:
    """Machine for ``L(a)+`` (one or more repetitions).

    The bridge tag is minted with a unique ``plus<n>`` label so
    distinct ``+`` nodes stay distinguishable in traces, ``repr``, and
    (label-keyed) serialization.
    """
    obs.count_operation("plus")
    return concat(a, star(a), tag=BridgeTag.fresh("plus"))


def optional(a: Nfa) -> Nfa:
    """Machine for ``L(a) ∪ {ε}``."""
    obs.count_operation("optional")
    out = Nfa(a.alphabet)
    mapping = embed(out, a)
    start = out.add_state()
    for old in a.starts:
        out.add_epsilon(start, mapping[old])
    out.starts = {start}
    out.finals = {mapping[s] for s in a.finals} | {start}
    return out


def eliminate_epsilon(a: Nfa) -> Nfa:
    """An ε-free machine for ``L(a)``.

    Standard closure elimination: every state gains the character edges
    of its ε-closure, becomes final if its closure contains a final
    state, and all ε-edges are dropped.  Bridge tags live only on
    ε-edges, so they are necessarily discarded — callers apply this to
    *constant* machines (whose tags are meaningless) before products,
    which keeps the number of bridge images per concatenation at one
    per genuinely distinct crossing state.  The paper's machine figures
    draw constants ε-free for the same reason.

    Memoized *structurally* by the active language cache: the GCI
    procedure reads bridge-crossing structure off products of this
    output, so the cache may only substitute a result computed from a
    structurally identical input.
    """
    cache = active_cache()
    if cache is not None:
        return cache.eliminate_epsilon(a)
    return _eliminate_epsilon_instrumented(a)


def _eliminate_epsilon_instrumented(a: Nfa) -> Nfa:
    obs.count_operation("eliminate_epsilon")
    with obs.span("eliminate_epsilon", states_in=a.num_states) as sp:
        out = Nfa(a.alphabet)
        mapping = {state: out.add_state() for state in a.states}
        for state in a.states:
            closure = a.epsilon_closure([state])
            obs.visit_states(1)
            for member in closure:
                for edge in a.out_edges(member):
                    if edge.label is not None:
                        out.add_transition(
                            mapping[state], edge.label, mapping[edge.dst]
                        )
            if closure & a.finals:
                out.finals.add(mapping[state])
        out.starts = {mapping[s] for s in a.starts}
        out = out.trim()
        sp.set("states_out", out.num_states)
        return out


def product(a: Nfa, b: Nfa) -> Nfa:
    """Trimmed cross-product machine for ``L(a) ∩ L(b)`` (Fig. 3, l. 7-8).

    ε-transitions are handled asynchronously: from pair ``(p, q)`` an
    ε-edge of either component moves that component alone, carrying its
    bridge tag with it.  Only pairs reachable from the start pairs are
    constructed, which is what the paper's state-visit cost model
    counts, and only the live ones are kept (the reachable product
    after :meth:`Nfa.trim`): the machine the GCI slices read.
    """
    obs.count_operation("product")
    if a.alphabet != b.alphabet:
        raise ValueError("cannot intersect machines over different alphabets")
    if a.is_empty() or b.is_empty():
        # A structurally empty operand (no reachable final) decides the
        # intersection without visiting a pair.  Like the trimmed empty
        # product, the result has no edges, no finals and so no bridge
        # crossings in later concatenations.
        obs.increment_metric("cache.empty_shortcircuit")
        return Nfa.never(a.alphabet)
    with obs.span("product", states_a=a.num_states, states_b=b.num_states) as sp:
        out = bitset.product(a, b)
        sp.set("states_out", out.num_states)
        return out


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Machine for ``L(a) ∩ L(b)`` when only its language matters.

    Memoized by the active language cache under the operands' tag-blind
    structural digests, so a hit may return a machine with different
    bridge tags, or the product of the operands in the other order.
    Callers that read structure off the result — bridge-image scanning,
    the GCI stage-1/stage-2 machines — must call :func:`product`, which
    the cache never substitutes.
    """
    obs.count_operation("intersect")
    cache = active_cache()
    if cache is not None:
        return cache.intersect(a, b)
    return product(a, b)


def difference(a: Nfa, b: Nfa) -> Nfa:
    """Machine for ``L(a) \\ L(b)``."""
    obs.count_operation("difference")
    return intersect(a, complement(b))


def reverse(a: Nfa) -> Nfa:
    """Machine for the reversal of ``L(a)``."""
    obs.count_operation("reverse")
    out = Nfa(a.alphabet)
    mapping = {state: out.add_state() for state in a.states}
    for src, edge in a.edges():
        out.add_transition(mapping[edge.dst], edge.label, mapping[src], edge.tag)
    out.starts = {mapping[s] for s in a.finals}
    out.finals = {mapping[s] for s in a.starts}
    obs.visit_states(a.num_states)
    return out


def prefix_closure(a: Nfa) -> Nfa:
    """The prefix closure ``{u | ∃v: u·v ∈ L(a)}``.

    Every co-reachable state becomes final.  Useful for modelling
    "starts-with" reasoning and for incremental witness search.
    """
    obs.count_operation("prefixes")
    out = a.trim()
    out.finals = out.live_states()
    return out


def suffix_closure(a: Nfa) -> Nfa:
    """The suffix closure ``{v | ∃u: u·v ∈ L(a)}``."""
    obs.count_operation("suffixes")
    out = a.trim()
    out.starts = out.live_states() or set(out.starts)
    return out


def factor_closure(a: Nfa) -> Nfa:
    """The factor closure ``{w | ∃u, v: u·w·v ∈ L(a)}``."""
    obs.count_operation("substrings")
    out = a.trim()
    live = out.live_states()
    if live:
        out.starts = set(live)
        out.finals = set(live)
    return out


def left_quotient(prefixes: Nfa, language: Nfa) -> Nfa:
    """The universal left quotient ``{w | ∀u ∈ L(prefixes): u·w ∈ L(language)}``.

    This is the *sound* semantics for a constant left operand in a
    concatenation constraint (see DESIGN.md): every string of the
    constant must lead into the target language.  If ``prefixes`` is
    empty the condition is vacuous and the result is ``Σ*``.

    Construction (:func:`repro.automata.bitset.left_quotient`):
    determinize ``language``; take the set ``S`` of DFA states reached
    from its start on some string of ``prefixes`` (``bitset.post``);
    then run the DFA from all of ``S`` simultaneously, accepting when
    *every* track accepts (``bitset.run``).
    """
    obs.count_operation("left_quotient")
    with obs.span(
        "left_quotient",
        prefix_states=prefixes.num_states,
        language_states=language.num_states,
    ) as sp:
        out = bitset.left_quotient(prefixes, language)
        sp.set("states_out", out.num_states)
        return out


def right_quotient(language: Nfa, suffixes: Nfa) -> Nfa:
    """The universal right quotient ``{w | ∀u ∈ L(suffixes): w·u ∈ L(language)}``.

    Construction (:func:`repro.automata.bitset.right_quotient`): the DFA
    of ``language`` itself, with a state final iff every string of
    ``suffixes`` leads from it to a final state (``bitset.pre``).
    """
    obs.count_operation("right_quotient")
    with obs.span("right_quotient", states_in=language.num_states) as sp:
        result = bitset.right_quotient(language, suffixes)
        sp.set("states_out", result.num_states)
        return result
