"""The automata kernels, over integer bitmasks.

dprle has one kernel per operation, and the heavy ones live here:
subset construction, Hopcroft minimization, the cross product and the
universal quotients.  The public entry points in
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
  structure (states, intern order, bridge tags) is a function of the
  operands alone; a backward walk then trims the output in place.
* **Hopcroft** refines a partition held as a list of member sets plus
  a block-of array.  Per-state move rows are merged by target and
  labelled with minterm masks; a splitter block ORs together each
  predecessor's entering mask and splits every touched block on
  every distinct mask at once (multi-way), queueing all parts but
  the largest (the smaller-half rule, generalized).
* **Universal quotients** work on a :class:`Residual` — a complete DFA
  whose states are residual languages — as state masks: a forward
  image (:func:`post`), a backward universal mask (:func:`pre`) and a
  multi-track universal run (:func:`run`).  Both quotients are two of
  these passes; the GCI maximization folds them leaf by leaf over a
  constraint's context without ever building the context's machine.

Inclusion is not here: :mod:`repro.automata.equivalence` runs a lazy
pair search that stops at the first counterexample and returns it,
which the solution checker needs anyway.  It shares only the idea of
a value-keyed memo (of each label set's minterm blocks) with this
module; compiling both operands to bitset views would be a pass over
every edge that a check failing early never needs.

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

__all__ = [
    "name",
    "determinize",
    "minimize_dfa",
    "product",
    "Residual",
    "post",
    "pre",
    "run",
    "left_quotient",
    "right_quotient",
]

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

    __slots__ = (
        "blocks",
        "reps",
        "ends",
        "full",
        "uncovered",
        "_label_masks",
        "_touch_masks",
        "_charsets",
    )

    def __init__(self, labels: list[CharSet], universe: CharSet) -> None:
        self.blocks = minterms(labels)
        self.reps = [block.min_char() for block in self.blocks]
        self.ends = [block.ranges[-1][1] for block in self.blocks]
        self.full = (1 << len(self.blocks)) - 1
        covered: list[tuple[int, int]] = []
        for block in self.blocks:
            covered.extend(block.ranges)
        self.uncovered = universe - CharSet(covered)
        self._label_masks: dict[CharSet, int] = {}
        self._touch_masks: dict[CharSet, int] = {}
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

    def touch_mask(self, label: CharSet) -> int:
        """The bitmask of minterm blocks that share a character with
        ``label`` — which need not be a union of blocks (it may come
        from another machine).  Per range: the block holding its low
        end, if any, through the last block starting at or below its
        high end."""
        mask = self._touch_masks.get(label)
        if mask is None:
            mask = 0
            reps = self.reps
            for lo, hi in label.ranges:
                i = bisect_right(reps, lo) - 1
                if i < 0 or self.ends[i] < lo:
                    i += 1
                j = bisect_right(reps, hi)
                if j > i:
                    mask |= (1 << j) - (1 << i)
            self._touch_masks[label] = mask
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
    refinement round ORs together, per predecessor of the splitter
    block, the *mask* of minterms on which it enters the splitter.
    Members of a block with different masks are behaviourally
    distinct, so one pass splits the block into one part per
    distinct mask (plus the untouched remainder) — the multi-way
    split of symbolic-automata minimization.  The largest part keeps
    the block id and every other part joins the worklist (the
    smaller-half rule, generalized), so each edge is touched
    ``O(log n)`` times in total.
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

    # Per-state move rows {dense target: minterm mask}, merged by
    # target, and the in-edge index over them; the machine must
    # partition the universe at every state.
    rows: list[dict[int, int]] = []
    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, state in enumerate(states):
        row: dict[int, int] = {}
        for label, dst in dfa_transitions[state]:
            j = idx[dst]
            row[j] = row.get(j, 0) | space.label_mask(label)
        covered = 0
        for j, mask in row.items():
            covered |= mask
            in_edges[j].append((i, mask))
        if covered != space.full:
            missing = space.full & ~covered
            k = (missing & -missing).bit_length() - 1
            raise ValueError(
                f"incomplete DFA: no move from {state} on "
                f"{space.reps[k]!r}"
            )
        rows.append(row)

    finals = {i for i, state in enumerate(states) if state in dfa.finals}
    blocks = [part for part in (set(finals), set(range(n)) - finals) if part]
    block_of = [0] * n
    for b, members in enumerate(blocks):
        for i in members:
            block_of[i] = b
    work: deque[int] = deque(range(len(blocks)))

    while work:
        entering: dict[int, int] = {}
        for target in blocks[work.popleft()]:
            for source, mask in in_edges[target]:
                entering[source] = entering.get(source, 0) | mask
        touched: dict[int, dict[int, set[int]]] = {}
        for source, mask in entering.items():
            groups = touched.setdefault(block_of[source], {})
            groups.setdefault(mask, set()).add(source)
        for b, groups in touched.items():
            parts = list(groups.values())
            rest = blocks[b]
            if len(parts) == 1 and len(parts[0]) == len(rest):
                continue  # every member enters alike: no split
            for part in parts:
                rest -= part
            if rest:
                parts.append(rest)
            largest = max(parts, key=len)
            blocks[b] = largest
            for part in parts:
                if part is not largest:
                    for i in part:
                        block_of[i] = len(blocks)
                    work.append(len(blocks))
                    blocks.append(part)

    # Quotient machine, renumbered canonically: BFS from the start
    # block with successors discovered in ascending label order.
    # Minterm masks of distinct target blocks are disjoint, so the
    # lowest set bit (= lowest character) orders them.
    order_of = {block_of[0]: 0}
    queue = [block_of[0]]
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    new_finals: set[int] = set()
    for new_id, b in enumerate(queue):
        rep = min(blocks[b])
        merged: dict[int, int] = {}
        for j, mask in rows[rep].items():
            merged[block_of[j]] = merged.get(block_of[j], 0) | mask
        moves: list[tuple[int, int]] = []
        for _, mask, target in sorted(
            [(m & -m, m, t) for t, m in merged.items()]
        ):
            if target not in order_of:
                order_of[target] = len(queue)
                queue.append(target)
            moves.append((order_of[target], mask))
        moves.sort()
        transitions[new_id] = [(space.charset(m), dst) for dst, m in moves]
        if rep in finals:
            new_finals.add(new_id)
    return dfa_mod.Dfa(dfa.alphabet, transitions, 0, new_finals)


# -- product ------------------------------------------------------------------


def product(a: Nfa, b: Nfa) -> Nfa:
    """Trimmed cross-product machine (see :func:`repro.automata.ops.product`).

    The GCI procedure reads bridge-crossing structure off the result,
    so the pair walk order below is part of the contract: pairs are
    popped LIFO, and from each pair the ε-edges of ``a``, then those of
    ``b``, then every labelled edge pair in edge order are expanded.
    The walked machine is then trimmed in place, as :meth:`Nfa.trim`
    would (same ids, edge order, starts, finals and next id).
    """
    space = _minterm_space(
        a.labels_from(a.states) + b.labels_from(b.states),
        a.alphabet.universe,
    )
    eps_a, chars_a = _edge_views(a, space)
    eps_b, chars_b = _edge_views(b, space)

    out = Nfa(a.alphabet)
    # Pair ``(p, q)`` interns under ``p * width + q``; ids count from 0.
    width = len(chars_b)
    ids: dict[int, int] = {}
    worklist: list[tuple[int, int, int]] = []
    charset = space.charset
    charsets_get = space._charsets.get
    # The add_transition guards cannot fire here (minterm labels are
    # non-empty, states are interned first), so edges append straight
    # onto the state rows (``tuple.__new__`` skips the NamedTuple
    # wrapper), and the labelled-edge loop inlines interning too: this
    # walk dominates product wall time.
    out_edges = out._edges
    ids_get = ids.get
    push = worklist.append
    new_edge = tuple.__new__

    def intern(p: int, q: int) -> int:
        key = p * width + q
        state = ids_get(key)
        if state is None:
            state = ids[key] = len(out_edges)
            out_edges[state] = []
            push((p, q, state))
        return state

    out.starts = {intern(p, q) for p in a.starts for q in b.starts}

    # The LIFO pair walk, with the label intersection per edge pair
    # reduced to one minterm-mask AND.  Worklist entries carry the
    # interned id alongside the pair so popping needs no dict lookup.
    while worklist:
        p, q, src = worklist.pop()
        append = out_edges[src].append
        for dst, tag in eps_a[p]:
            append(new_edge(Edge, (None, intern(dst, q), tag)))
        for dst, tag in eps_b[q]:
            append(new_edge(Edge, (None, intern(p, dst), tag)))
        edges_b = chars_b[q]
        if edges_b:
            for mask_a, dst_a in chars_a[p]:
                row = dst_a * width
                for mask_b, dst_b in edges_b:
                    both = mask_a & mask_b
                    if both:
                        state = ids_get(row + dst_b)
                        if state is None:
                            state = ids[row + dst_b] = len(out_edges)
                            out_edges[state] = []
                            push((dst_a, dst_b, state))
                        label = charsets_get(both)
                        if label is None:
                            label = charset(both)
                        append(new_edge(Edge, (label, state, None)))
    out._next_state = len(out_edges)
    obs.visit_states(len(out_edges))  # every interned pair is popped once

    a_finals = a.finals
    b_finals = b.finals
    out.finals = {
        state
        for key, state in ids.items()
        if key // width in a_finals and key % width in b_finals
    }
    _drop_dead(out)
    return out


def _drop_dead(machine: Nfa) -> None:
    """Trim, in place, a machine whose states ``0 .. n-1`` are all
    reachable: drop the states no final is reachable from and the edges
    into them (a dead start keeps an empty row, last, as in a trim).
    The reverse index holds a state's first predecessor (-1 for none)
    in ``first``, any others in ``more``."""
    edges = machine._edges
    size = len(edges)
    first = [-1] * size
    more: dict[int, list[int]] = {}
    for src in range(size):
        for _, dst, _ in edges[src]:
            if first[dst] < 0:
                first[dst] = src
            else:
                more.setdefault(dst, []).append(src)
    live = set(machine.finals)
    stack = sorted(live)
    while stack:
        state = stack.pop()
        for pred in more.get(state, ()):
            if pred not in live:
                live.add(pred)
                stack.append(pred)
        pred = first[state]
        if pred >= 0 and pred not in live:
            live.add(pred)
            stack.append(pred)
    if len(live) < size:
        for state in range(size):
            if state not in live:
                del edges[state]
            elif any(dst not in live for _, dst, _ in edges[state]):
                edges[state] = [edge for edge in edges[state] if edge.dst in live]
        for state in machine.starts - live:
            edges[state] = []


# -- residual DFAs and the universal quotients --------------------------------


class Residual:
    """A complete DFA compiled for set-at-a-time quotient work.

    Every DFA state is a residual language — the strings that lead from
    it into a final state — so a universal quotient by a context never
    needs an automaton for the context itself: a pass over the DFA's
    state *masks* (bit ``i`` = ``states[i]``, the states in sorted
    order) under the context's machine is enough.  Three kernels read
    one of these:

    * :func:`post` — the forward image: the states some string of a
      machine leads to from a mask;
    * :func:`pre` — the backward universal mask: the states from which
      *every* string of a machine ends inside a goal mask;
    * :func:`run` — the multi-track universal run: the strings that
      lead every track of a mask into a goal mask.

    ``LQ(L, RQ(c, R)) = run(post(L, {start}), pre(R, finals))`` on the
    residual of ``c``, and a context that is a concatenation folds leaf
    by leaf (``post(L1·L2, S) = post(L2, post(L1, S))``, likewise
    ``pre`` from the right), so the Galois maximization never builds a
    context machine.

    The minterm blocks of the DFA's own labels partition its universe,
    and every state moves uniformly on each block, so a context label
    acts through the blocks it *touches* — no joint refinement with the
    context's labels is needed.  ``packed[i]`` holds the successor bit
    of state ``i`` on block ``k`` in the ``n``-bit field ``k``: stepping
    a mask on any block set is one ``OR`` per member bit; ``preds[k][d]``
    is the mask of states stepping to ``d`` on block ``k``.  The image and
    preimage memos (per ``(mask, blocks)``) live on the instance, so
    their lifetime is the owner's.
    """

    __slots__ = (
        "dfa",
        "states",
        "n",
        "full",
        "start_mask",
        "finals_mask",
        "space",
        "packed",
        "preds",
        "_images",
        "_preimages",
    )

    def __init__(self, dfa: Dfa) -> None:
        states = sorted(dfa.transitions)
        index = {state: i for i, state in enumerate(states)}
        n = len(states)
        space = _minterm_space(
            [label for moves in dfa.transitions.values() for label, _ in moves],
            dfa.alphabet.universe,
        )
        packed = [0] * n
        # preds[k][d]: the states stepping to d on block k.
        preds = [[0] * n for _ in space.blocks]
        for state, moves in dfa.transitions.items():
            i = index[state]
            bit = 1 << i
            acc = 0
            for label, dst in moves:
                d = index[dst]
                for k in _bits(space.label_mask(label)):
                    acc |= (1 << d) << (k * n)
                    preds[k][d] |= bit
            packed[i] = acc
        finals = 0
        for state in dfa.finals:
            finals |= 1 << index[state]
        self.dfa = dfa
        self.states = states
        self.n = n
        self.full = (1 << n) - 1
        self.start_mask = 1 << index[dfa.start]
        self.finals_mask = finals
        self.space = space
        self.packed = packed
        self.preds = preds
        self._images: dict[tuple[int, int], int] = {}
        self._preimages: dict[tuple[int, int], int] = {}

    def successors(self, mask: int) -> int:
        """The packed successor fields of ``mask``: field ``k`` is its
        image on block ``k``."""
        acc = 0
        packed = self.packed
        while mask:
            low = mask & -mask
            mask ^= low
            acc |= packed[low.bit_length() - 1]
        return acc

    def image(self, mask: int, blocks: int) -> int:
        """The states reached from ``mask`` on some block of ``blocks``."""
        key = (mask, blocks)
        found = self._images.get(key)
        if found is None:
            acc = self.successors(mask)
            n = self.n
            full = self.full
            found = 0
            for k in _bits(blocks):
                found |= (acc >> (k * n)) & full
            if len(self._images) >= _MASK_MEMO_LIMIT:
                self._images.clear()
            self._images[key] = found
        return found

    def preimage(self, mask: int, blocks: int) -> int:
        """The states that step into ``mask`` on some block of ``blocks``."""
        key = (mask, blocks)
        found = self._preimages.get(key)
        if found is None:
            found = 0
            for k in _bits(blocks):
                row = self.preds[k]
                for d in _bits(mask):
                    found |= row[d]
            if len(self._preimages) >= _MASK_MEMO_LIMIT:
                self._preimages.clear()
            self._preimages[key] = found
        return found


#: Entries per image/preimage memo before it is cleared wholesale.
_MASK_MEMO_LIMIT = 1 << 16


def post(res: Residual, machine: Nfa, tracks: int) -> int:
    """The forward image of ``tracks`` under ``L(machine)``: the states
    ``δ(d, u)`` for ``d`` in ``tracks`` and ``u`` a string of
    ``machine`` (characters outside the universe lead nowhere).

    A pair walk over (machine state, DFA state) done set-at-a-time:
    each machine state carries the mask of DFA states it has been
    reached with, and only the newly added bits propagate.  Visits
    count one per pair.
    """
    reached: dict[int, int] = {}
    stack: list[tuple[int, int]] = []
    if tracks:
        for p in sorted(machine.starts):
            reached[p] = tracks
            stack.append((p, tracks))
    touch = res.space.touch_mask
    image = res.image
    visited = 0
    while stack:
        p, new = stack.pop()
        visited += new.bit_count()
        for edge in machine.out_edges(p):
            if edge.label is None:
                moved = new
            else:
                blocks = touch(edge.label)
                if not blocks:
                    continue
                moved = image(new, blocks)
            have = reached.get(edge.dst, 0)
            fresh = moved & ~have
            if fresh:
                reached[edge.dst] = have | fresh
                stack.append((edge.dst, fresh))
    obs.visit_states(visited)
    out = 0
    for state in machine.finals:
        out |= reached.get(state, 0)
    return out


def pre(res: Residual, machine: Nfa, goal: int) -> int:
    """The backward universal mask: the states ``d`` with ``δ(d, u)`` in
    ``goal`` for every string ``u`` of ``machine`` — on the residual of
    ``c``, the DFA states of the universal right quotient of ``c`` by a
    context ending in ``goal``.

    The complement is found by a backward pair walk: seeded with every
    (final, state outside ``goal``) pair, it collects the (machine
    state, DFA state) pairs from which some string escapes ``goal``.
    Visits count one per such pair.  Characters outside the universe
    lead nowhere, so they never make a state escape.
    """
    full = res.full
    escape = full & ~goal
    visited = 0
    blocked = 0
    if escape and machine.finals:
        touch = res.space.touch_mask
        # into[q]: (source, blocks) per edge into q; blocks -1 is ε.
        into: dict[int, list[tuple[int, int]]] = {}
        for src, edge in machine.edges():
            if edge.label is None:
                blocks = -1
            else:
                blocks = touch(edge.label)
                if not blocks:
                    continue
            into.setdefault(edge.dst, []).append((src, blocks))
        preimage = res.preimage
        bad: dict[int, int] = {}
        stack: list[tuple[int, int]] = []
        for q in sorted(machine.finals):
            bad[q] = escape
            stack.append((q, escape))
        while stack:
            q, new = stack.pop()
            visited += new.bit_count()
            for src, blocks in into.get(q, ()):
                moved = new if blocks < 0 else preimage(new, blocks)
                have = bad.get(src, 0)
                fresh = moved & ~have
                if fresh:
                    bad[src] = have | fresh
                    stack.append((src, fresh))
        for state in machine.starts:
            blocked |= bad.get(state, 0)
    obs.visit_states(visited)
    return full & ~blocked


def run(res: Residual, tracks: int, goal: int) -> Nfa:
    """The multi-track universal run: ``{w | δ(tracks, w) ⊆ goal}``, as
    its minimal DFA (trimmed, as an NFA).

    Track sets intern as ints; one is accepting iff it is non-empty and
    inside ``goal`` (so an empty ``tracks`` gives the empty language).
    The DFA is complete, so a non-empty track set steps to a non-empty
    one on every block, and the track-set machine is a complete DFA
    over the residual's blocks: Hopcroft (:func:`minimize_dfa`, looked
    up at call time like every kernel) runs on it directly, with no
    subset construction.  The GCI maximization intersects the result
    with a leaf that may be large, so each state saved here is a copy
    of that leaf its product never builds.  Visits count one per
    interned track set, plus Hopcroft's own.
    """
    n = res.n
    full = res.full
    nmt = len(res.space.blocks)
    charset = res.space.charset
    ids: dict[int, int] = {}
    worklist: list[int] = []
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    finals: set[int] = set()

    def intern(target: int) -> int:
        sid = ids.get(target)
        if sid is None:
            sid = ids[target] = len(ids)
            worklist.append(target)
        return sid

    start = intern(tracks)
    while worklist:
        current = worklist.pop()
        src = ids[current]
        if current and not (current & ~goal):
            finals.add(src)
        acc = res.successors(current)
        by_target: dict[int, int] = {}
        for k in range(nmt):
            target = (acc >> (k * n)) & full
            by_target[target] = by_target.get(target, 0) | (1 << k)
        transitions[src] = [
            (charset(blocks), intern(target))
            for target, blocks in by_target.items()
        ]
    obs.visit_states(len(ids))
    dfa = dfa_mod.Dfa(res.dfa.alphabet, transitions, start, finals)
    return minimize_dfa(dfa).to_nfa().trim()


def left_quotient(prefixes: Nfa, language: Nfa) -> Nfa:
    """Universal left quotient: determinize ``language`` (through the
    cached public entry point), take the forward image of its start
    under ``prefixes``, and run every reached state at once."""
    if prefixes.is_empty():
        return Nfa.universal(language.alphabet)
    res = Residual(dfa_mod.determinize(language))
    return run(res, post(res, prefixes, res.start_mask), res.finals_mask)


def right_quotient(language: Nfa, suffixes: Nfa) -> Nfa:
    """Universal right quotient: ``language``'s own DFA with the finals
    replaced by ``pre(suffixes, finals)``."""
    res = Residual(dfa_mod.determinize(language))
    out = res.dfa.to_nfa()
    # to_nfa numbers the states densely in sorted order, as the
    # residual's masks do.
    out.finals = set(_bits(pre(res, suffixes, res.finals_mask)))
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
