"""The oracle kernels: straightforward set-based constructions.

These are the textbook versions of the heavy automata kernels —
subset construction, Hopcroft minimization, the cross product, the
residual passes (forward image, backward universal mask, universal
run) and the two universal quotients — over Python sets and
``CharSet`` intervals, plus the per-pair inclusion search and the
all-states trim.  They are
slow and obviously correct, and the production kernels in
:mod:`repro.automata.bitset`, :mod:`repro.automata.equivalence` and
:class:`~repro.automata.nfa.Nfa` are tested against them:

* ``determinize`` and ``product`` must agree *structurally*: same
  states in the same numbering, same edges, labels and bridge tags
  (the product is the reachable pair machine after :func:`trim`);
* ``minimize_dfa`` must agree on the language and the minimal size,
  and both number the result canonically, so the machines are equal;
* ``post``, ``pre`` and ``run`` must agree exactly: the same state
  masks, and a language-equal run of the same (minimal) size;
  :func:`track_set_dfa` is the unminimized run both are checked
  against;
* ``left_quotient`` and ``right_quotient`` must agree on the language.
  They are the constructions the production kernels replaced: the left
  quotient seed-searches a pair walk and runs the seeds (no
  ``post``/``run`` factoring), the right quotient is
  ``reverse ∘ left_quotient ∘ reverse``;
* ``counterexample`` must agree on the verdict and the string;
* ``trim`` must agree on states, per-state edge lists, starts, finals
  and the next state id;
* ``product_walk`` is the plain stage-5 GCI walk: every index of the
  full bridge product, sliced and checked per combination.  The
  depth-first ``gci._iter_candidates`` must yield the same ``(index,
  languages)`` stream.

Each kernel counts visits one by one (``obs.visit_states(1)``) exactly
where the production kernels count them in batches, so a solve under
either kernel set leaves the same counters — except the right
quotient, whose reversal construction counts the visits of a left
quotient on the reversed machines.  :func:`use_kernels`
swaps the oracle in for a block, which is how the end-to-end
equivalence suites run the solver on both.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional

from repro import obs
from repro.automata import bitset, ops
from repro.automata.charset import CharSet, minterms
from repro.automata.dfa import Dfa, determinize as cached_determinize
from repro.automata.nfa import Nfa
from repro.solver import gci

__all__ = [
    "KERNEL_SETS",
    "determinize",
    "minimize_dfa",
    "product",
    "post",
    "pre",
    "run",
    "track_set_dfa",
    "left_quotient",
    "right_quotient",
    "counterexample",
    "trim",
    "structure",
    "product_walk",
    "use_kernels",
]

#: The two kernel sets the equivalence suites compare: ``"reference"``
#: is this module, ``"bitset"`` the production kernels.
KERNEL_SETS = ["reference", "bitset"]


def determinize(nfa: Nfa) -> Dfa:
    alphabet = nfa.alphabet
    universe = alphabet.universe

    start_set = nfa.epsilon_closure(nfa.starts)
    ids: dict[frozenset[int], int] = {start_set: 0}
    order: list[frozenset[int]] = [start_set]
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    finals: set[int] = set()
    sink: Optional[int] = None

    def intern(subset: frozenset[int]) -> int:
        if subset not in ids:
            ids[subset] = len(order)
            order.append(subset)
        return ids[subset]

    index = 0
    while index < len(order):
        subset = order[index]
        state_id = ids[subset]
        index += 1
        obs.visit_states(len(subset))
        if subset & nfa.finals:
            finals.add(state_id)
        labels = nfa.labels_from(subset)
        covered = CharSet.empty()
        by_target: dict[int, CharSet] = {}
        for block in minterms(labels):
            rep = block.min_char()
            target = frozenset(nfa.step(subset, rep))
            target_id = intern(target)
            by_target[target_id] = by_target.get(target_id, CharSet.empty()) | block
            covered = covered | block
        rest = universe - covered
        if not rest.is_empty():
            if sink is None:
                sink = intern(frozenset())
            by_target[sink] = by_target.get(sink, CharSet.empty()) | rest
        moves = sorted(by_target.items(), key=lambda kv: kv[0])
        transitions[state_id] = [(label, dst) for dst, label in moves]

    # The sink (if created) may not have been expanded yet; complete it.
    for state_id in range(len(order)):
        if state_id not in transitions:
            transitions[state_id] = [(universe, state_id)]
    return Dfa(alphabet, transitions, 0, finals)


def minimize_dfa(dfa: Dfa) -> Dfa:
    # Restrict to reachable states.
    reachable = {dfa.start}
    queue = deque([dfa.start])
    while queue:
        state = queue.popleft()
        for _, dst in dfa.transitions[state]:
            if dst not in reachable:
                reachable.add(dst)
                queue.append(dst)

    # Sorted so partition refinement sees a state order that is a
    # function of the machine, not of set iteration order.
    all_labels = [
        label
        for state in sorted(reachable)
        for label, _ in dfa.transitions[state]
    ]
    symbols = minterms(all_labels)
    reps = [block.min_char() for block in symbols]

    # delta[s][k] = successor of s on symbol block k.
    delta: dict[int, list[int]] = {}
    for state in sorted(reachable):
        delta[state] = [dfa.delta(state, rep) for rep in reps]
        obs.visit_states(1)

    # preds[k][t] = states stepping to t on block k.
    preds: list[dict[int, set[int]]] = [dict() for _ in symbols]
    for state in sorted(reachable):
        for k, target in enumerate(delta[state]):
            preds[k].setdefault(target, set()).add(state)

    finals = dfa.finals & reachable
    nonfinals = reachable - finals
    partition: list[set[int]] = [blk for blk in (finals, nonfinals) if blk]
    member: dict[int, int] = {}
    for idx, blk in enumerate(partition):
        for state in blk:
            member[state] = idx
    worklist: deque[int] = deque(range(len(partition)))

    while worklist:
        splitter = set(partition[worklist.popleft()])
        for k in range(len(symbols)):
            incoming: set[int] = set()
            for target in splitter:
                incoming |= preds[k].get(target, set())
            touched: dict[int, set[int]] = {}
            for state in sorted(incoming):
                touched.setdefault(member[state], set()).add(state)
            for blk_idx, moved in sorted(touched.items()):
                block = partition[blk_idx]
                if len(moved) == len(block):
                    continue
                remainder = block - moved
                partition[blk_idx] = moved
                new_idx = len(partition)
                partition.append(remainder)
                for state in remainder:
                    member[state] = new_idx
                # Re-examine both halves: simpler than the smaller-half
                # rule and still terminating (every split grows the
                # partition).
                worklist.append(blk_idx)
                worklist.append(new_idx)

    # The quotient machine.
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    for blk_idx, block in enumerate(partition):
        rep_state = min(block)
        by_target: dict[int, CharSet] = {}
        for k, symbol in enumerate(symbols):
            target_blk = member[delta[rep_state][k]]
            by_target[target_blk] = by_target.get(target_blk, CharSet.empty()) | symbol
        covered = CharSet.empty()
        for cs in by_target.values():
            covered = covered | cs
        rest = dfa.alphabet.universe - covered
        if not rest.is_empty():
            # Characters in no label behave like the representative's
            # move on any one of them.
            target_blk = member[dfa.delta(rep_state, rest.min_char())]
            by_target[target_blk] = by_target.get(target_blk, CharSet.empty()) | rest
        transitions[blk_idx] = [(cs, dst) for dst, cs in sorted(by_target.items())]

    # Number the blocks canonically, as minimize_dfa promises: BFS from
    # the start block, successors in ascending label order.
    order = {member[dfa.start]: 0}
    queue = [member[dfa.start]]
    for blk_idx in queue:
        for _, dst in sorted(transitions[blk_idx], key=lambda m: m[0].min_char()):
            if dst not in order:
                order[dst] = len(queue)
                queue.append(dst)
    canonical = {
        order[blk_idx]: sorted(((cs, order[dst]) for cs, dst in moves), key=lambda m: m[1])
        for blk_idx, moves in transitions.items()
    }
    return Dfa(dfa.alphabet, canonical, 0, {order[member[s]] for s in finals})


def product(a: Nfa, b: Nfa) -> Nfa:
    out = Nfa(a.alphabet)
    ids: dict[tuple[int, int], int] = {}
    worklist: list[tuple[int, int]] = []

    def intern(pair: tuple[int, int]) -> int:
        if pair not in ids:
            state = out.add_state()
            ids[pair] = state
            worklist.append(pair)
        return ids[pair]

    for p in a.starts:
        for q in b.starts:
            intern((p, q))
    out.starts = set(ids.values())

    while worklist:
        pair = worklist.pop()
        p, q = pair
        src = ids[pair]
        obs.visit_states(1)
        for edge in a.out_edges(p):
            if edge.is_epsilon:
                out.add_epsilon(src, intern((edge.dst, q)), edge.tag)
        for edge in b.out_edges(q):
            if edge.is_epsilon:
                out.add_epsilon(src, intern((p, edge.dst)), edge.tag)
        for ea in a.out_edges(p):
            if ea.is_epsilon:
                continue
            for eb in b.out_edges(q):
                if eb.is_epsilon:
                    continue
                both = ea.label & eb.label
                if not both.is_empty():
                    out.add_transition(src, both, intern((ea.dst, eb.dst)))

    out.finals = {
        state
        for (p, q), state in ids.items()
        if p in a.finals and q in b.finals
    }
    return trim(out)


def left_quotient(prefixes: Nfa, language: Nfa) -> Nfa:
    if prefixes.is_empty():
        return Nfa.universal(language.alphabet)
    dfa = cached_determinize(language)

    # S = DFA states reachable on strings of `prefixes`.
    seeds: set[int] = set()
    stack: list[tuple[int, int]] = [
        (p, dfa.start) for p in prefixes.epsilon_closure(prefixes.starts)
    ]
    seen: set[tuple[int, int]] = set(stack)
    while stack:
        p, d = stack.pop()
        obs.visit_states(1)
        if p in prefixes.finals:
            seeds.add(d)
        for edge in prefixes.out_edges(p):
            if edge.is_epsilon:
                successors = [(edge.dst, d)]
            else:
                successors = [
                    (edge.dst, dst)
                    for label, dst in dfa.transitions[d]
                    if not (edge.label & label).is_empty()
                ]
            for nxt in successors:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)

    # Universal run of the DFA from all seed states at once.
    out = Nfa(language.alphabet)
    ids: dict[frozenset[int], int] = {}
    worklist: list[frozenset[int]] = []

    def intern(subset: frozenset[int]) -> int:
        if subset not in ids:
            ids[subset] = out.add_state()
            worklist.append(subset)
        return ids[subset]

    out.starts = {intern(frozenset(seeds))}
    while worklist:
        subset = worklist.pop()
        src = ids[subset]
        obs.visit_states(1)
        if subset and all(d in dfa.finals for d in subset):
            out.finals.add(src)
        labels = [label for d in sorted(subset) for label, _ in dfa.transitions[d]]
        for block in minterms(labels):
            rep = block.min_char()
            target = frozenset(dfa.delta(d, rep) for d in subset)
            out.add_transition(src, block, intern(target))
    return out


def right_quotient(language: Nfa, suffixes: Nfa) -> Nfa:
    return ops.reverse(left_quotient(ops.reverse(suffixes), ops.reverse(language)))


def _touches(label: CharSet, dfa: Dfa, state: int) -> list[int]:
    """The successors of DFA ``state`` on some character of ``label``."""
    return [
        dst
        for move, dst in dfa.transitions[state]
        if not (label & move).is_empty()
    ]


def post(res: bitset.Residual, machine: Nfa, tracks: int) -> int:
    """(machine state, DFA state) pairs reachable from the starts paired
    with ``tracks``, one ``visit_states(1)`` per pair popped; the DFA
    states paired with a final."""
    dfa = res.dfa
    index = {state: i for i, state in enumerate(res.states)}
    stack = [
        (p, res.states[i])
        for p in sorted(machine.starts)
        for i in range(res.n)
        if tracks >> i & 1
    ]
    seen = set(stack)
    while stack:
        p, d = stack.pop()
        obs.visit_states(1)
        for edge in machine.out_edges(p):
            if edge.is_epsilon:
                successors = [(edge.dst, d)]
            else:
                successors = [
                    (edge.dst, dst) for dst in _touches(edge.label, dfa, d)
                ]
            for nxt in successors:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    out = 0
    for p, d in seen:
        if p in machine.finals:
            out |= 1 << index[d]
    return out


def pre(res: bitset.Residual, machine: Nfa, goal: int) -> int:
    """A backward pair search from every (final, state outside
    ``goal``) pair, one ``visit_states(1)`` per pair popped; the DFA
    states no start pairs with."""
    dfa = res.dfa
    index = {state: i for i, state in enumerate(res.states)}
    preds: dict[int, list[tuple[int, Optional[CharSet]]]] = {}
    for src, edge in machine.edges():
        preds.setdefault(edge.dst, []).append((src, edge.label))
    stack = [
        (q, d)
        for q in sorted(machine.finals)
        for d in res.states
        if not goal >> index[d] & 1
    ]
    seen = set(stack)
    while stack:
        q, d = stack.pop()
        obs.visit_states(1)
        for src, label in preds.get(q, []):
            if label is None:
                candidates = [(src, d)]
            else:
                candidates = [
                    (src, d0)
                    for d0 in res.states
                    if d in _touches(label, dfa, d0)
                ]
            for nxt in candidates:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    blocked = {d for p, d in seen if p in machine.starts}
    out = 0
    for d in res.states:
        if d not in blocked:
            out |= 1 << index[d]
    return out


def track_set_dfa(res: bitset.Residual, tracks: int, goal: int) -> Dfa:
    """The universal run's track-set DFA, unminimized: frozensets of
    residual states, fresh minterms per subset, one ``visit_states(1)``
    per subset.  The language oracle for :func:`run` and
    :func:`repro.automata.bitset.run`."""
    dfa = res.dfa
    members = lambda mask: frozenset(
        res.states[i] for i in range(res.n) if mask >> i & 1
    )
    accepting = members(goal)
    ids: dict[frozenset[int], int] = {}
    worklist: list[frozenset[int]] = []
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    finals: set[int] = set()

    def intern(subset: frozenset[int]) -> int:
        if subset not in ids:
            ids[subset] = len(ids)
            worklist.append(subset)
        return ids[subset]

    start = intern(members(tracks))
    while worklist:
        subset = worklist.pop()
        src = ids[subset]
        obs.visit_states(1)
        if subset and subset <= accepting:
            finals.add(src)
        labels = [label for d in sorted(subset) for label, _ in dfa.transitions[d]]
        # The empty track set has no labels: it loops on everything.
        blocks = minterms(labels) if subset else [dfa.alphabet.universe]
        transitions[src] = [
            (
                block,
                intern(frozenset(dfa.delta(d, block.min_char()) for d in subset)),
            )
            for block in blocks
        ]
    return Dfa(dfa.alphabet, transitions, start, finals)


def run(res: bitset.Residual, tracks: int, goal: int) -> Nfa:
    """:func:`track_set_dfa`, minimized by the kernel table's Hopcroft
    and trimmed, as the production ``run`` does."""
    return bitset.minimize_dfa(track_set_dfa(res, tracks, goal)).to_nfa().trim()


def counterexample(a: Nfa, b: Nfa) -> Optional[str]:
    """The inclusion search pair by pair: fresh minterms and interval
    lookups for every pair, one ``visit_states(1)`` per pair popped."""
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


def trim(nfa: Nfa) -> Nfa:
    """Restrict to live states, with a predecessor map over *all*
    states for the backward pass."""
    preds: dict[int, set[int]] = {state: set() for state in nfa.states}
    for src, edge in nfa.edges():
        preds[edge.dst].add(src)
    coreachable = set(nfa.finals)
    queue = deque(coreachable)
    while queue:
        state = queue.popleft()
        for pred in preds[state]:
            if pred not in coreachable:
                coreachable.add(pred)
                queue.append(pred)
    live = nfa.reachable_from(nfa.starts) & coreachable
    clone = Nfa(nfa.alphabet)
    clone._next_state = nfa._next_state
    for state in sorted(live | set(nfa.starts)):
        clone._edges[state] = [
            edge
            for edge in nfa.out_edges(state)
            if edge.dst in live and state in live
        ]
    clone.starts = set(nfa.starts)
    clone.finals = nfa.finals & live
    return clone


def structure(nfa: Nfa) -> tuple:
    """What ``trim`` must agree on: per-state edge lists (so the state
    set), starts, finals and the next state id."""
    edges = {state: list(nfa.out_edges(state)) for state in nfa.states}
    return edges, nfa.starts, nfa.finals, nfa._next_state


def product_walk(prepared: "gci._PreparedGroup") -> Iterator[tuple[int, dict]]:
    """``(index, solution)`` for every viable combination of a prepared
    group, walking all of ``itertools.product`` over its edge lists:
    the raw slices, not maximized."""
    edge_lists = [prepared.edges_by_tag[tag] for tag in prepared.tag_order]
    for index, edges in enumerate(itertools.product(*edge_lists)):
        solution = _slice_combination(prepared, dict(zip(prepared.tag_order, edges)))
        if solution is not None:
            yield index, solution


def _slice_combination(prepared: "gci._PreparedGroup", chosen: dict) -> Optional[dict]:
    """Slice every occurrence for one bridge choice; None if any slice
    or any shared variable's intersection is empty."""
    slices: dict = {node: [] for node in prepared.leaves}
    for occ_index, occ in enumerate(prepared.occurrences):
        start_edge = chosen[occ.start_of[1]] if occ.start_of[0] != "machine" else None
        final_edge = chosen[occ.final_of[1]] if occ.final_of[0] != "machine" else None
        piece = gci._occurrence_slice(prepared, occ_index, start_edge, final_edge)
        if piece is None:
            return None
        slices[occ.node].append(piece)
    solution = {}
    for node in prepared.var_nodes:
        machine = slices[node][0].copy()
        for part in slices[node][1:]:
            machine = ops.intersect(machine, part).trim()
        if machine.is_empty():
            return None
        solution[node] = machine
    return solution


_ORACLE = {
    "determinize": determinize,
    "minimize_dfa": minimize_dfa,
    "product": product,
    "post": post,
    "pre": pre,
    "run": run,
    "left_quotient": left_quotient,
    "right_quotient": right_quotient,
}


@contextmanager
def use_kernels(name: str) -> Iterator[None]:
    """Run the block on the named kernel set (one of :data:`KERNEL_SETS`).

    ``"reference"`` swaps this module's kernels in for the production
    ones; the public entry points in ``repro.automata`` look the
    kernels up on :mod:`repro.automata.bitset` at call time, so caching
    and instrumentation stay exactly as in production.  Worker
    processes forked before the block keep the production kernels.
    """
    if name not in KERNEL_SETS:
        raise ValueError(f"unknown kernel set {name!r}")
    if name == "bitset":
        yield
        return
    saved = {kernel: getattr(bitset, kernel) for kernel in _ORACLE}
    try:
        for kernel, impl in _ORACLE.items():
            setattr(bitset, kernel, impl)
        yield
    finally:
        for kernel, impl in saved.items():
            setattr(bitset, kernel, impl)
