"""The automata kernels, over integer bitmasks.

dprle has one kernel per operation, and the heavy ones live here:
subset construction, Hopcroft minimization, the cross product and the
universal left quotient.  The public entry points in
:mod:`repro.automata.dfa` and :mod:`repro.automata.ops` add caching and
instrumentation and then call these functions directly.  The kernels
evaluate set-at-a-time: an NFA state *set* is a single Python ``int``
(bit ``i`` = state ``i``), the transition relation is a table of
per-minterm bitset rows, and the hot constructions become bitwise
frontier propagation:

* **ε-closure** is a transitive-closure table computed once per
  machine; closing a set is one ``OR`` per member bit instead of a
  worklist of Python sets per step.
* **Subset construction** steps a subset by OR-ing the (ε-closed)
  destination rows of its member bits, grouped per minterm of the
  interval alphabet.  Subsets intern as plain ints.
* **Product** intersects edge labels by AND-ing precomputed minterm
  masks — one machine-word op replacing an interval-merge — while
  walking the pair worklist in a fixed LIFO order, so the output
  structure (states, intern order, bridge tags, provenance) is a
  function of the operands alone.
* **Hopcroft** refines an integer partition array (element/location/
  block-index arrays with marked-prefix splitting and a smaller-half
  rule generalized to multi-way splits) over sparse per-state move
  rows whose labels are minterm masks, splitting on every distinct
  incoming mask of a splitter block at once.

Inclusion is not here: the lazy check in
:mod:`repro.automata.equivalence` stops at the first counterexample
and returns it, which the solution checker needs anyway.

Everything compiles from and back to the shared
:class:`~repro.automata.nfa.Nfa` / :class:`~repro.automata.dfa.Dfa`
types; no caller ever sees a bitmask.  Observability counters are
emitted as batched totals — one ``visit_states(n)`` per construction —
counting the subsets interned, the pairs walked and the states
refined, exactly as the straightforward set-based constructions in
``tests/oracle.py`` count them one by one.

``numpy`` is deliberately not required: Python's arbitrary-precision
ints already vectorize the OR/AND frontier work, machines regularly
exceed 64 states (where fixed-width arrays would need chunking), and
the package has no runtime dependencies.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

from .. import obs
from . import dfa as dfa_mod
from .charset import CharSet, minterms
from .nfa import Edge, Nfa

if TYPE_CHECKING:  # pragma: no cover - types only
    from .dfa import Dfa

__all__ = ["name", "determinize", "minimize_dfa", "product", "left_quotient"]

#: The kernel set's name, recorded by benchmarks next to their numbers.
name = "bitset"


def _bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Minterms:
    """A minterm refinement of a label collection, with memoized maps
    between :class:`CharSet` labels and minterm bitmasks."""

    __slots__ = ("blocks", "reps", "full", "uncovered", "_label_masks", "_charsets")

    def __init__(self, labels: list[CharSet], universe: CharSet) -> None:
        self.blocks = minterms(labels)
        self.reps = [block.min_char() for block in self.blocks]
        self.full = (1 << len(self.blocks)) - 1
        covered: list[tuple[int, int]] = []
        for block in self.blocks:
            covered.extend(block.ranges)
        self.uncovered = universe - CharSet(covered)
        self._label_masks: dict[CharSet, int] = {}
        self._charsets: dict[int, CharSet] = {}

    def label_mask(self, label: CharSet) -> int:
        """The bitmask of minterm blocks whose union is ``label``.

        Blocks are disjoint single intervals sorted by position (see
        :func:`~repro.automata.charset.minterms`) and each is entirely
        inside or outside any input label, so the blocks covered by one
        of ``label``'s ranges form the contiguous run of ``reps``
        falling inside it — two bisects per range, not a sweep of all
        blocks.
        """
        mask = self._label_masks.get(label)
        if mask is None:
            mask = 0
            reps = self.reps
            for lo, hi in label.ranges:
                i = bisect_left(reps, lo)
                j = bisect_right(reps, hi)
                if j > i:
                    mask |= (1 << j) - (1 << i)
            self._label_masks[label] = mask
        return mask

    def charset(self, mask: int) -> CharSet:
        """The union of the minterm blocks selected by ``mask``."""
        found = self._charsets.get(mask)
        if found is None:
            ranges: list[tuple[int, int]] = []
            for k in _bits(mask):
                ranges.extend(self.blocks[k].ranges)
            found = CharSet(ranges)
            self._charsets[mask] = found
        return found


#: Value-keyed memo of minterm spaces.  Every kernel compiles its
#: operands against a minterm refinement of their labels, and the same
#: machines flow through many kernel calls per solve (quotient
#: fixpoints, repeated signatures), so the partitions repeat heavily.
#: Keyed purely by (universe, label set) — block order is canonical
#: (sorted by position) — the memo is semantically invisible: it only
#: skips recomputing a deterministic pure function, so the kernels stay
#: stateless (worker processes simply grow their own memo).  Bounded by
#: wholesale clearing, which costs at most one recomputation per
#: retained space.
_SPACE_MEMO_LIMIT = 1024
_space_memo: dict[tuple, _Minterms] = {}


def _minterm_space(labels: list[CharSet], universe: CharSet) -> _Minterms:
    """The (memoized) minterm space of a label collection.

    Duplicate labels do not change the partition, so the memo keys on
    the label *set*; the shared instance also accumulates its
    ``label_mask``/``charset`` memos across calls, which is where most
    of the win comes from on repeat machines.
    """
    key = (universe, frozenset(labels))
    space = _space_memo.get(key)
    if space is None:
        if len(_space_memo) >= _SPACE_MEMO_LIMIT:
            _space_memo.clear()
        space = _Minterms(labels, universe)
        _space_memo[key] = space
    return space


class _Compiled:
    """A bitset view of one NFA over a shared minterm space.

    ``rows[i]`` is a sorted list of ``(minterm index, ε-closed
    destination mask)`` pairs — the sparse transition row of state bit
    ``i``; ``closure[i]`` is the ε-closure of state ``i`` as a mask.
    """

    __slots__ = ("index", "closure", "rows", "start_mask", "finals_mask")

    def __init__(self, nfa: Nfa, space: _Minterms) -> None:
        states = sorted(nfa.states)
        index = {state: i for i, state in enumerate(states)}
        self.index = index
        n = len(states)

        eps_adj = [0] * n
        for i, state in enumerate(states):
            for edge in nfa.out_edges(state):
                if edge.label is None:
                    eps_adj[i] |= 1 << index[edge.dst]
        self.closure = _transitive_closure(eps_adj)

        rows: list[list[tuple[int, int]]] = []
        label_mask = space.label_mask
        for i, state in enumerate(states):
            acc: dict[int, int] = {}
            for edge in nfa.out_edges(state):
                if edge.label is None:
                    continue
                dest = self.closure[index[edge.dst]]
                for k in _bits(label_mask(edge.label)):
                    acc[k] = acc.get(k, 0) | dest
            rows.append(sorted(acc.items()))
        self.rows = rows

        start = 0
        for state in nfa.starts:
            start |= self.closure[index[state]]
        self.start_mask = start
        finals = 0
        for state in nfa.finals:
            finals |= 1 << index[state]
        self.finals_mask = finals

    def step_rows(self, subset: int) -> dict[int, int]:
        """Per-minterm successor masks of ``subset`` (ε-closed)."""
        per_k: dict[int, int] = {}
        rows = self.rows
        mask = subset
        while mask:
            low = mask & -mask
            mask ^= low
            for k, dest in rows[low.bit_length() - 1]:
                have = per_k.get(k)
                per_k[k] = dest if have is None else have | dest
        return per_k


def _transitive_closure(adj: list[int]) -> list[int]:
    """Reflexive-transitive closure of an adjacency mask list."""
    n = len(adj)
    closure = [adj[i] | (1 << i) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            current = closure[i]
            acc = current
            mask = current
            while mask:
                low = mask & -mask
                mask ^= low
                acc |= closure[low.bit_length() - 1]
            if acc != current:
                closure[i] = acc
                changed = True
    return closure


# -- determinize --------------------------------------------------------------


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction producing a complete DFA.

    Subsets are numbered in BFS discovery order with successors taken
    in ascending character order, and the empty subset (the sink) is
    interned the first time some subset has a move into it.
    """
    space = _minterm_space(nfa.labels_from(nfa.states), nfa.alphabet.universe)
    comp = _Compiled(nfa, space)
    no_uncovered = space.uncovered.is_empty()

    ids: dict[int, int] = {comp.start_mask: 0}
    order: list[int] = [comp.start_mask]
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    finals: set[int] = set()
    finals_mask = comp.finals_mask

    index = 0
    visited = 0
    while index < len(order):
        subset = order[index]
        state_id = index
        index += 1
        visited += subset.bit_count()
        if subset & finals_mask:
            finals.add(state_id)

        per_k = comp.step_rows(subset)
        # Intern targets in ascending minterm (= character) order, so
        # state numbering is the BFS order over characters.
        by_target: dict[int, int] = {}
        hit = 0
        for k in sorted(per_k):
            target = per_k[k]
            bit = 1 << k
            hit |= bit
            target_id = ids.get(target)
            if target_id is None:
                target_id = len(order)
                ids[target] = target_id
                order.append(target)
            by_target[target_id] = by_target.get(target_id, 0) | bit

        moves = [
            (target_id, space.charset(mask))
            for target_id, mask in by_target.items()
        ]
        sink_mask = space.full & ~hit
        if sink_mask or not no_uncovered:
            rest = space.charset(sink_mask)
            if not no_uncovered:
                rest = rest | space.uncovered
            sink_id = ids.get(0)
            if sink_id is None:
                sink_id = len(order)
                ids[0] = sink_id
                order.append(0)
            moves.append((sink_id, rest))
        moves.sort(key=lambda item: item[0])
        transitions[state_id] = [(label, dst) for dst, label in moves]

    obs.visit_states(visited)
    return dfa_mod.Dfa(nfa.alphabet, transitions, 0, finals)


# -- Hopcroft -----------------------------------------------------------------


def minimize_dfa(dfa: Dfa) -> Dfa:
    """Symbolic Hopcroft: partition refinement with minterm-mask
    multi-way splits.

    Instead of expanding the label alphabet into ``m`` explicit
    symbols and refining per symbol (cost ``O(m · n log n)``), each
    refinement round accumulates, per predecessor of the splitter
    block, the *mask* of minterms on which it enters the splitter.
    Members of a block with different masks are behaviourally
    distinct, so one pass splits the block into one part per
    distinct mask (plus the untouched remainder) — the multi-way
    split of symbolic-automata minimization.  Each edge is touched
    ``O(log n)`` times total (generalized smaller-half rule: when a
    block splits, all parts but the largest join the worklist).
    """
    dfa_transitions = dfa.transitions
    # Reachable states, BFS order; dense renumbering.
    states = [dfa.start]
    seen = {dfa.start}
    for state in states:
        for _, dst in dfa_transitions[state]:
            if dst not in seen:
                seen.add(dst)
                states.append(dst)
    idx = {state: i for i, state in enumerate(states)}
    n = len(states)
    obs.visit_states(n)

    labels = [
        label for state in states for label, _ in dfa_transitions[state]
    ]
    space = _minterm_space(labels, dfa.alphabet.universe)
    if not space.uncovered.is_empty():
        raise ValueError(
            f"incomplete DFA: no move from {dfa.start} on "
            f"{space.uncovered.min_char()!r}"
        )
    full = space.full
    label_mask = space.label_mask

    # Per-state move rows as (minterm mask, dense target) — computed
    # once, reused by the in-edge index below and the quotient at
    # the end — with a completeness check on the way (the machine
    # must partition the universe at every state).
    move_rows: list[list[tuple[int, int]]] = []
    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # Labels repeat heavily across DFA rows (determinize interns
    # them per minterm mask), so an identity-keyed fast path in
    # front of the value-keyed memo skips most CharSet hashing.
    # The label is kept in the entry so a stale id can never alias.
    masks_by_id: dict[int, tuple[CharSet, int]] = {}
    for i, state in enumerate(states):
        covered = 0
        row: list[tuple[int, int]] = []
        prev_j = -1
        by_target = True
        for label, dst in dfa_transitions[state]:
            entry = masks_by_id.get(id(label))
            if entry is not None and entry[0] is label:
                mask = entry[1]
            else:
                mask = label_mask(label)
                masks_by_id[id(label)] = (label, mask)
            covered |= mask
            j = idx[dst]
            if j <= prev_j:
                by_target = False
            prev_j = j
            row.append((mask, j))
        if covered != full:
            missing = full & ~covered
            k = (missing & -missing).bit_length() - 1
            raise ValueError(
                f"incomplete DFA: no move from {state} on "
                f"{space.reps[k]!r}"
            )
        if not by_target:
            # Row not strictly ascending by target: merge duplicate
            # targets so each (source, target) appears once in the
            # in-edge index (the singleton-splitter fast path in
            # the refinement loop relies on that).
            merged: dict[int, int] = {}
            for mask, j in row:
                merged[j] = merged.get(j, 0) | mask
            row = [(mask, j) for j, mask in merged.items()]
        for mask, j in row:
            in_edges[j].append((i, mask))
        move_rows.append(row)

    # The integer partition: elems holds all states grouped by
    # block, loc inverts it, [first, end) delimits each block.
    finals_members = [i for i in range(n) if states[i] in dfa.finals]
    finals_set = set(finals_members)
    nonfinal_members = [i for i in range(n) if i not in finals_set]
    elems: list[int] = []
    first: list[int] = []
    end: list[int] = []
    block_of = [0] * n
    for members in (finals_members, nonfinal_members):
        if not members:
            continue
        first.append(len(elems))
        for member in members:
            block_of[member] = len(first) - 1
            elems.append(member)
        end.append(len(elems))
    loc = [0] * n
    for position, member in enumerate(elems):
        loc[member] = position

    work: deque[int] = deque(range(len(first)))
    in_work = [True] * len(first)
    # Flat per-source accumulator (sources are dense ints): masks
    # OR in by list index, `touched_sources` remembers which slots
    # to drain — no per-edge dict hashing in the hot loop.
    acc_mask = [0] * n

    while work:
        splitter_idx = work.popleft()
        in_work[splitter_idx] = False
        touched: dict[int, dict[int, list[int]]] = {}
        lo_s = first[splitter_idx]
        if end[splitter_idx] - lo_s == 1:
            # Singleton splitter (the common case once refinement
            # gets going): each source appears at most once in the
            # target's in-edge row, so group directly — no
            # accumulator pass.
            for source, mask in in_edges[elems[lo_s]]:
                block = block_of[source]
                groups = touched.get(block)
                if groups is None:
                    touched[block] = {mask: [source]}
                    continue
                members = groups.get(mask)
                if members is None:
                    groups[mask] = [source]
                else:
                    members.append(source)
        else:
            # Snapshot: the splitter's members may migrate below.
            splitter = elems[lo_s : end[splitter_idx]]
            touched_sources: list[int] = []
            append_source = touched_sources.append
            for target in splitter:
                for source, mask in in_edges[target]:
                    prior = acc_mask[source]
                    if prior:
                        acc_mask[source] = prior | mask
                    else:
                        acc_mask[source] = mask
                        append_source(source)
            for source in touched_sources:
                mask = acc_mask[source]
                acc_mask[source] = 0
                block = block_of[source]
                groups = touched.get(block)
                if groups is None:
                    touched[block] = {mask: [source]}
                    continue
                members = groups.get(mask)
                if members is None:
                    groups[mask] = [source]
                else:
                    members.append(source)
        for block, groups in touched.items():
            lo = first[block]
            hi = end[block]
            size = hi - lo
            marked = 0
            for group in groups.values():
                marked += len(group)
            if len(groups) == 1 and marked == size:
                continue  # every member behaves alike: no split
            # Multi-way split: pack each mask group into its own
            # slice of the block's range (the unmarked remainder
            # keeps the original block index).
            cursor = hi
            parts = [block]
            for group in groups.values():
                cursor -= len(group)
                for offset, source in enumerate(group):
                    i = loc[source]
                    j = cursor + offset
                    if i != j:
                        other = elems[j]
                        elems[i] = other
                        elems[j] = source
                        loc[other] = i
                        loc[source] = j
                new_idx = len(first)
                first.append(cursor)
                end.append(cursor + len(group))
                in_work.append(False)
                for source in group:
                    block_of[source] = new_idx
                parts.append(new_idx)
            end[block] = cursor  # remainder (may be empty)
            if cursor == lo:
                # No unmarked remainder: the original index is an
                # empty shell; drop it from the parts on offer.
                parts.pop(0)
                largest = max(
                    parts, key=lambda b: end[b] - first[b]
                )
                if in_work[block]:
                    # It was pending under its old extent: every
                    # part must stay pending.
                    in_work[block] = False
                    largest = -1
            else:
                largest = (
                    -1
                    if in_work[block]
                    else max(parts, key=lambda b: end[b] - first[b])
                )
            # Generalized smaller-half rule: everything but the
            # largest part joins the worklist; when the split block
            # was itself pending, all parts do.
            for part in parts:
                if part != largest and not in_work[part]:
                    work.append(part)
                    in_work[part] = True

    # Quotient machine, renumbered canonically: BFS from the start
    # block with successors discovered in ascending label order (the
    # same canonical numbering language signatures use).  Moves come
    # from each block representative's move row — already merged by
    # target — not from an m-wide symbol table; fully-split empty
    # shells are simply never discovered (no state maps to them).
    charset = space.charset
    charsets_get = space._charsets.get
    finals = dfa.finals
    start_block = block_of[idx[dfa.start]]
    order_of: dict[int, int] = {start_block: 0}
    queue = [start_block]
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    new_finals: set[int] = set()
    for new_id, block in enumerate(queue):
        rep = elems[first[block]]
        acc2: dict[int, int] = {}
        for mask, j in move_rows[rep]:
            target_block = block_of[j]
            have = acc2.get(target_block)
            acc2[target_block] = mask if have is None else have | mask
        # Minterm masks of distinct targets are disjoint, so the
        # lowest set bit (= lowest character) is a unique, cheap
        # integer sort key for ascending-label order.
        moves = [
            (mask & -mask, mask, target_block)
            for target_block, mask in acc2.items()
        ]
        moves.sort()
        row: list[tuple[int, int]] = []
        for _, mask, target_block in moves:
            target_id = order_of.get(target_block)
            if target_id is None:
                target_id = len(queue)
                order_of[target_block] = target_id
                queue.append(target_block)
            row.append((target_id, mask))
        row.sort()
        transitions[new_id] = [
            (
                label
                if (label := charsets_get(mask)) is not None
                else charset(mask),
                dst,
            )
            for dst, mask in row
        ]
        if states[rep] in finals:
            new_finals.add(new_id)
    return dfa_mod.Dfa(dfa.alphabet, transitions, 0, new_finals)


# -- product ------------------------------------------------------------------


def product(a: Nfa, b: Nfa) -> tuple[Nfa, dict[int, tuple[int, int]]]:
    """Cross-product machine with its provenance map (see
    :func:`repro.automata.ops.product`).

    The GCI procedure reads bridge-crossing structure off the result,
    so the pair walk order below is part of the contract: pairs are
    popped LIFO, and from each pair the ε-edges of ``a``, then those of
    ``b``, then every labelled edge pair in edge order are expanded.
    """
    space = _minterm_space(
        a.labels_from(a.states) + b.labels_from(b.states),
        a.alphabet.universe,
    )
    eps_a, chars_a = _edge_views(a, space)
    eps_b, chars_b = _edge_views(b, space)

    out = Nfa(a.alphabet)
    ids: dict[tuple[int, int], int] = {}
    provenance: dict[int, tuple[int, int]] = {}
    worklist: list[tuple[int, int]] = []
    charset = space.charset
    charsets_get = space._charsets.get
    # Edges append straight onto the state rows (labels from the
    # minterm space are non-empty by construction, states are
    # interned just below — the add_transition guards cannot fire).
    # State allocation (a counter bump plus an empty edge row) and
    # edge construction (``tuple.__new__`` skips the NamedTuple
    # argument-binding wrapper) are likewise inlined: this walk
    # dominates product wall time.
    out_edges = out._edges
    ids_get = ids.get
    push = worklist.append
    new_edge = tuple.__new__
    next_state = 0

    for p in a.starts:
        for q in b.starts:
            pair = (p, q)
            if ids_get(pair) is None:
                out_edges[next_state] = []
                ids[pair] = next_state
                provenance[next_state] = pair
                push((pair, next_state))
                next_state += 1
    out.starts = set(ids.values())

    # The LIFO pair walk, with the label intersection per edge pair
    # reduced to one minterm-mask AND.  Worklist entries carry the
    # interned id alongside the pair so popping needs no dict lookup.
    pairs_visited = 0
    while worklist:
        (p, q), src = worklist.pop()
        append = out_edges[src].append
        pairs_visited += 1
        for dst, tag in eps_a[p]:
            key = (dst, q)
            state = ids_get(key)
            if state is None:
                state = next_state
                out_edges[state] = []
                ids[key] = state
                provenance[state] = key
                push((key, state))
                next_state += 1
            append(new_edge(Edge, (None, state, tag)))
        for dst, tag in eps_b[q]:
            key = (p, dst)
            state = ids_get(key)
            if state is None:
                state = next_state
                out_edges[state] = []
                ids[key] = state
                provenance[state] = key
                push((key, state))
                next_state += 1
            append(new_edge(Edge, (None, state, tag)))
        edges_b = chars_b[q]
        if edges_b:
            for mask_a, dst_a in chars_a[p]:
                for mask_b, dst_b in edges_b:
                    both = mask_a & mask_b
                    if both:
                        key = (dst_a, dst_b)
                        state = ids_get(key)
                        if state is None:
                            state = next_state
                            out_edges[state] = []
                            ids[key] = state
                            provenance[state] = key
                            push((key, state))
                            next_state += 1
                        label = charsets_get(both)
                        if label is None:
                            label = charset(both)
                        append(new_edge(Edge, (label, state, None)))
    out._next_state = next_state
    obs.visit_states(pairs_visited)

    a_finals = a.finals
    b_finals = b.finals
    out.finals = {
        state
        for state, (p, q) in provenance.items()
        if p in a_finals and q in b_finals
    }
    return out, provenance


# -- universal left quotient --------------------------------------------------


def left_quotient(prefixes: Nfa, language: Nfa) -> Nfa:
    """Universal left quotient by packed multi-track DFA runs.

    Determinize ``language`` (through the cached public entry point),
    seed-search the DFA states reachable on ``prefixes``, then run all
    tracks at once, accepting when every track accepts.  The track set
    is one int bitmask and the whole per-minterm successor family of a
    DFA state is one packed int (``n``-bit field per minterm): stepping
    a track set on *all* minterms at once is one ``OR`` per member bit.
    Minterms that land on the same track set are merged into one
    transition — the result is only ever consumed as a language.
    Visits count one per seed-search pair and one per interned track
    set.
    """
    if prefixes.is_empty():
        return Nfa.universal(language.alphabet)
    dfa = dfa_mod.determinize(language)
    states = sorted(dfa.transitions)
    n = len(states)
    index = {state: i for i, state in enumerate(states)}

    # Minterms over the DFA labels *and* the prefix labels: every
    # label either side uses is then an exact union of blocks.
    labels = [
        label for moves in dfa.transitions.values() for label, _ in moves
    ]
    labels.extend(
        edge.label
        for state in prefixes.states
        for edge in prefixes.out_edges(state)
        if edge.label is not None
    )
    space = _minterm_space(labels, language.alphabet.universe)
    nmt = len(space.blocks)
    label_mask = space.label_mask

    # packed[i]: minterm-indexed n-bit fields, field k holding the
    # successor bit of DFA state i on block k.  step[i][k] is the
    # same successor as a plain index (for the pair search), or -1 on
    # a block no DFA label covers: a prefix label may reach outside the
    # alphabet universe, and no string of the language continues there.
    packed = [0] * n
    step = [[-1] * nmt for _ in range(n)]
    for state, moves in dfa.transitions.items():
        i = index[state]
        row = step[i]
        for label, dst in moves:
            dbit = 1 << index[dst]
            didx = index[dst]
            for k in _bits(label_mask(label)):
                packed[i] |= dbit << (k * n)
                row[k] = didx

    # Seed search: DFA states reachable on some string of
    # ``prefixes`` — a (prefix state, DFA state) pair walk with label
    # intersections as minterm-mask hits.
    visited = 0
    seeds = 0
    start_d = index[dfa.start]
    stack = [
        (p, start_d) for p in prefixes.epsilon_closure(prefixes.starts)
    ]
    seen = set(stack)
    prefix_finals = prefixes.finals
    while stack:
        p, d = stack.pop()
        visited += 1
        if p in prefix_finals:
            seeds |= 1 << d
        row = step[d]
        for edge in prefixes.out_edges(p):
            if edge.is_epsilon:
                nxt = (edge.dst, d)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            else:
                for k in _bits(label_mask(edge.label)):
                    successor = row[k]
                    if successor < 0:
                        continue
                    nxt = (edge.dst, successor)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)

    # Universal run: track sets intern as ints; accepting iff every
    # track is final.  The DFA is complete, so a nonempty track set
    # steps to a nonempty one on every block inside the universe.
    full_field = (1 << n) - 1
    finals_mask = 0
    for state in dfa.finals:
        finals_mask |= 1 << index[state]
    out = Nfa(language.alphabet)
    ids: dict[int, int] = {}
    worklist: list[int] = []

    def intern(tracks: int) -> int:
        sid = ids.get(tracks)
        if sid is None:
            sid = out.add_state()
            ids[tracks] = sid
            worklist.append(tracks)
        return sid

    out.starts = {intern(seeds)}
    while worklist:
        tracks = worklist.pop()
        src = ids[tracks]
        visited += 1
        if tracks and not (tracks & ~finals_mask):
            out.finals.add(src)
        acc = 0
        mask = tracks
        while mask:
            low = mask & -mask
            mask ^= low
            acc |= packed[low.bit_length() - 1]
        by_target: dict[int, int] = {}
        for k in range(nmt):
            target = (acc >> (k * n)) & full_field
            if target:
                by_target[target] = by_target.get(target, 0) | (1 << k)
        for target, blocks in by_target.items():
            out.add_transition(src, space.charset(blocks), intern(target))
    obs.visit_states(visited)
    return out


def _edge_views(
    nfa: Nfa, space: _Minterms
) -> tuple[list[list], list[list]]:
    """Split each state's edges into ε and minterm-masked char views,
    preserving the original edge order (the product walk relies on it).

    Views are dense lists indexed by state id (states are allocated
    sequentially, so ids are small ints); states absent from the
    machine keep empty rows.
    """
    size = max(nfa.states, default=-1) + 1
    eps: list[list[tuple[int, Optional[object]]]] = [[] for _ in range(size)]
    chars: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    label_mask = space.label_mask
    for state in nfa.states:
        eps_edges = eps[state]
        char_edges = chars[state]
        for edge in nfa.out_edges(state):
            if edge.label is None:
                eps_edges.append((edge.dst, edge.tag))
            else:
                char_edges.append((label_mask(edge.label), edge.dst))
    return eps, chars
