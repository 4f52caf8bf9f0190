"""The oracle kernels: straightforward set-based constructions.

These are the textbook versions of the four heavy automata kernels —
subset construction, Hopcroft minimization, the cross product and the
universal left quotient — over Python sets and ``CharSet`` intervals.
They are slow and obviously correct, and the production kernels in
:mod:`repro.automata.bitset` are tested against them:

* ``determinize`` and ``product`` must agree *structurally*: same
  states in the same numbering, same edges, labels, bridge tags and
  provenance;
* ``minimize_dfa`` must agree on the language and the minimal size;
* ``left_quotient`` must agree on the language.

Each kernel counts visits one by one (``obs.visit_states(1)``) exactly
where the production kernels count them in batches, so a solve under
either kernel set leaves the same counters.  :func:`use_kernels`
swaps the oracle in for a block, which is how the end-to-end
equivalence suites run the solver on both.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional

from repro import obs
from repro.automata import bitset
from repro.automata.charset import CharSet, minterms
from repro.automata.dfa import Dfa, determinize as cached_determinize
from repro.automata.nfa import Nfa

__all__ = [
    "KERNEL_SETS",
    "determinize",
    "minimize_dfa",
    "product",
    "left_quotient",
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
    new_finals = {member[s] for s in finals}
    return Dfa(dfa.alphabet, transitions, member[dfa.start], new_finals)


def product(a: Nfa, b: Nfa) -> tuple[Nfa, dict[int, tuple[int, int]]]:
    out = Nfa(a.alphabet)
    ids: dict[tuple[int, int], int] = {}
    provenance: dict[int, tuple[int, int]] = {}
    worklist: list[tuple[int, int]] = []

    def intern(pair: tuple[int, int]) -> int:
        if pair not in ids:
            state = out.add_state()
            ids[pair] = state
            provenance[state] = pair
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
        for state, (p, q) in provenance.items()
        if p in a.finals and q in b.finals
    }
    return out, provenance


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


_ORACLE = {
    "determinize": determinize,
    "minimize_dfa": minimize_dfa,
    "product": product,
    "left_quotient": left_quotient,
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
