"""Nondeterministic finite automata with ε-transitions.

This is the machine representation the paper's algorithms manipulate
(Sec. 3.2).  Transitions are labelled with :class:`~repro.automata.charset.CharSet`
values; ``None`` labels are ε-transitions.

Two details matter for the decision procedure:

* **Bridge tags.**  The concatenation construction (paper Fig. 3 line 6)
  introduces a single ε-transition between the operand machines.  The CI
  algorithm later needs to find the *images* of that transition inside a
  product machine.  We attach an opaque ``tag`` to the bridging edge;
  the product construction propagates tags, so the images can be found
  by tag rather than by guessing from state names.
* **No implicit self-loops.**  As in the paper, states do not implicitly
  ε-step to themselves.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .alphabet import BYTE_ALPHABET, Alphabet
from .charset import CharSet

__all__ = ["Edge", "Nfa", "BridgeTag"]


class BridgeTag:
    """Opaque identity for a concatenation's bridging ε-transition.

    One tag is minted per concatenation; every image of the bridge edge
    inside later product machines carries the same tag.

    Auto-generated labels draw from an :func:`itertools.count`, whose
    ``next()`` is atomic in CPython, so tags minted from concurrent
    threads (e.g. solves sharing a cache under a thread pool) never
    collide.  Label-keyed serialization relies on this uniqueness.
    """

    __slots__ = ("label",)
    _ids = itertools.count(1)

    def __init__(self, label: str = ""):
        self.label = label or f"bridge{next(BridgeTag._ids)}"

    @classmethod
    def fresh(cls, prefix: str) -> "BridgeTag":
        """A tag with a unique ``<prefix><n>`` label (e.g. ``plus7``)."""
        return cls(f"{prefix}{next(cls._ids)}")

    def __repr__(self) -> str:
        return f"<BridgeTag {self.label}>"


class Edge(NamedTuple):
    """A single transition: ``label`` is a CharSet, or None for ε."""

    label: Optional[CharSet]
    dst: int
    tag: Optional[BridgeTag] = None

    @property
    def is_epsilon(self) -> bool:
        return self.label is None


class Nfa:
    """A mutable ε-NFA over a symbolic alphabet.

    States are small integers allocated by :meth:`add_state`.  The
    machine keeps explicit *sets* of start and final states; the
    single-start/single-final normal form the paper assumes is
    available via :meth:`normalized`.
    """

    def __init__(self, alphabet: Alphabet = BYTE_ALPHABET):
        self.alphabet = alphabet
        self._next_state = 0
        self.starts: set[int] = set()
        self.finals: set[int] = set()
        self._edges: dict[int, list[Edge]] = {}

    # -- construction --------------------------------------------------

    def add_state(self) -> int:
        """Allocate and return a fresh state id."""
        state = self._next_state
        self._next_state += 1
        self._edges[state] = []
        return state

    def add_states(self, count: int) -> list[int]:
        return [self.add_state() for _ in range(count)]

    def add_transition(
        self,
        src: int,
        label: Optional[CharSet],
        dst: int,
        tag: Optional[BridgeTag] = None,
    ) -> None:
        """Add an edge; ``label=None`` adds an ε-transition."""
        if label is not None and label.is_empty():
            return
        self._check_state(src)
        self._check_state(dst)
        self._edges[src].append(Edge(label, dst, tag))

    def add_epsilon(self, src: int, dst: int, tag: Optional[BridgeTag] = None) -> None:
        self.add_transition(src, None, dst, tag)

    def add_char(self, src: int, char: str, dst: int) -> None:
        self.add_transition(src, CharSet.single(char), dst)

    def set_start(self, state: int) -> None:
        self._check_state(state)
        self.starts = {state}

    def set_final(self, state: int) -> None:
        self._check_state(state)
        self.finals = {state}

    def _check_state(self, state: int) -> None:
        if state not in self._edges:
            raise ValueError(f"unknown state {state}")

    # -- canonical small machines --------------------------------------

    @classmethod
    def never(cls, alphabet: Alphabet = BYTE_ALPHABET) -> "Nfa":
        """The machine accepting the empty *language*."""
        nfa = cls(alphabet)
        nfa.starts = {nfa.add_state()}
        return nfa

    @classmethod
    def epsilon_only(cls, alphabet: Alphabet = BYTE_ALPHABET) -> "Nfa":
        """The machine accepting exactly the empty string."""
        nfa = cls(alphabet)
        state = nfa.add_state()
        nfa.starts = {state}
        nfa.finals = {state}
        return nfa

    @classmethod
    def literal(cls, text: str, alphabet: Alphabet = BYTE_ALPHABET) -> "Nfa":
        """The machine accepting exactly ``text``."""
        nfa = cls(alphabet)
        state = nfa.add_state()
        nfa.starts = {state}
        for ch in text:
            nxt = nfa.add_state()
            nfa.add_char(state, ch, nxt)
            state = nxt
        nfa.finals = {state}
        return nfa

    @classmethod
    def char_class(cls, chars: CharSet, alphabet: Alphabet = BYTE_ALPHABET) -> "Nfa":
        """The machine accepting any single character from ``chars``."""
        nfa = cls(alphabet)
        src = nfa.add_state()
        dst = nfa.add_state()
        nfa.add_transition(src, chars, dst)
        nfa.starts = {src}
        nfa.finals = {dst}
        return nfa

    @classmethod
    def universal(cls, alphabet: Alphabet = BYTE_ALPHABET) -> "Nfa":
        """The machine accepting ``Σ*``."""
        nfa = cls(alphabet)
        state = nfa.add_state()
        nfa.add_transition(state, alphabet.universe, state)
        nfa.starts = {state}
        nfa.finals = {state}
        return nfa

    # -- inspection -----------------------------------------------------

    @property
    def states(self) -> Iterable[int]:
        return self._edges.keys()

    @property
    def num_states(self) -> int:
        return len(self._edges)

    @property
    def num_transitions(self) -> int:
        return sum(len(edges) for edges in self._edges.values())

    def out_edges(self, state: int) -> list[Edge]:
        return self._edges[state]

    def edges(self) -> Iterator[tuple[int, Edge]]:
        """Iterate all ``(src, edge)`` pairs."""
        for src, edges in self._edges.items():
            for edge in edges:
                yield src, edge

    def labels_from(self, states: Iterable[int]) -> list[CharSet]:
        """All non-ε labels leaving any of ``states``."""
        return [
            edge.label
            for state in states
            for edge in self._edges[state]
            if edge.label is not None
        ]

    # -- ε-closure and simulation ----------------------------------------

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        """All states reachable from ``states`` via ε-transitions."""
        seen = set(states)
        # dprle-lint: disable=L030 -- traversal order only; the result is a frozenset
        stack = list(seen)
        while stack:
            state = stack.pop()
            for edge in self._edges[state]:
                if edge.is_epsilon and edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return frozenset(seen)

    def step(self, states: Iterable[int], char: str | int) -> frozenset[int]:
        """One symbol step (including closing under ε afterwards)."""
        cp = char if isinstance(char, int) else ord(char)
        moved = {
            edge.dst
            for state in states
            for edge in self._edges[state]
            if edge.label is not None and cp in edge.label
        }
        return self.epsilon_closure(moved)

    def accepts(self, text: str) -> bool:
        """Decide membership of ``text`` in the machine's language."""
        current = self.epsilon_closure(self.starts)
        for ch in text:
            if not current:
                return False
            current = self.step(current, ch)
        return bool(current & self.finals)

    def __contains__(self, text: str) -> bool:
        return self.accepts(text)

    # -- reachability / structure ----------------------------------------

    def reachable_from(self, roots: Iterable[int]) -> set[int]:
        """States reachable from ``roots`` via any transition."""
        edges = self._edges
        seen = set(roots)
        # dprle-lint: disable=L030 -- traversal order only; the result is a set
        stack = list(seen)
        while stack:
            for _, dst, _ in edges[stack.pop()]:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def live_states(
        self,
        starts: Optional[Iterable[int]] = None,
        finals: Optional[Iterable[int]] = None,
        barrier: frozenset[BridgeTag] = frozenset(),
        walked: Optional[list[int]] = None,
    ) -> set[int]:
        """States on some start→final path that crosses no ``barrier`` tag.

        ``starts`` and ``finals`` default to the machine's own.  The
        forward pass from the starts records each edge it walks in a
        predecessor map, so the map for the backward pass from the
        finals covers only the states reached forward: a boundary deep
        inside a large machine costs the part of the machine it can
        reach, not the whole of it.  An edge tagged in ``barrier`` is
        never walked, so neither is anything only it leads to.
        ``walked``, when given, is a one-element list incremented by the
        number of states the forward pass reached.
        """
        edges = self._edges
        roots = set(self.starts if starts is None else starts)
        # Each reached state's first predecessor goes in ``first``, any
        # others in ``more``: most states have one, and plain ints keep
        # a large map from allocating a list per state.  A state is
        # reached forward iff it is a root or has a first predecessor.
        first: dict[int, int] = {}
        more: dict[int, list[int]] = {}
        # dprle-lint: disable=L030 -- traversal order only; the result is a set
        stack = list(roots)
        while stack:
            src = stack.pop()
            for _, dst, tag in edges[src]:
                if tag in barrier:
                    continue
                if dst in first:
                    more.setdefault(dst, []).append(src)
                else:
                    first[dst] = src
                    if dst not in roots:
                        stack.append(dst)
        if walked is not None:
            walked[0] += len(roots.union(first))
        live = {
            state
            for state in (self.finals if finals is None else finals)
            if state in first or state in roots
        }
        # dprle-lint: disable=L030 -- traversal order only; the result is a set
        stack = list(live)
        while stack:
            state = stack.pop()
            if state not in first:
                continue
            for pred in (first[state], *more.get(state, ())):
                if pred not in live:
                    live.add(pred)
                    stack.append(pred)
        return live

    def is_empty(self) -> bool:
        """True iff the language is empty: no final is reachable from a
        start.  The forward walk stops at the first final it reaches."""
        edges, finals = self._edges, self.finals
        seen = set(self.starts)
        if not seen.isdisjoint(finals):
            return False
        # dprle-lint: disable=L030 -- traversal order only; the result is a bool
        stack = list(seen)
        while stack:
            for _, dst, _ in edges[stack.pop()]:
                if dst not in seen:
                    if dst in finals:
                        return False
                    seen.add(dst)
                    stack.append(dst)
        return True

    def accepts_epsilon(self) -> bool:
        return bool(self.epsilon_closure(self.starts) & self.finals)

    # -- transformation ---------------------------------------------------

    def copy(self) -> "Nfa":
        """A deep structural copy preserving state ids."""
        clone = Nfa(self.alphabet)
        clone._next_state = self._next_state
        clone.starts = set(self.starts)
        clone.finals = set(self.finals)
        clone._edges = {state: list(edges) for state, edges in self._edges.items()}
        return clone

    def trim(self) -> "Nfa":
        """Copy restricted to live states (keeps ids).

        The result always retains at least one start state so it remains
        a well-formed machine even when the language is empty.
        """
        return self.restricted(self.starts, self.finals)

    def restricted(
        self,
        starts: Iterable[int],
        finals: Iterable[int],
        barrier: frozenset[BridgeTag] = frozenset(),
        walked: Optional[list[int]] = None,
    ) -> "Nfa":
        """Trimmed copy with ``starts`` and ``finals`` as its boundary.

        ``m.restricted({q}, m.finals)`` is the paper's
        induce_from_start(m, q) and ``m.restricted(m.starts, {q})`` its
        induce_from_final(m, q), trimmed.  The result is the machine a
        :meth:`copy` given these starts and finals, less its edges
        tagged in ``barrier``, would trim to (same ids, edges, starts,
        finals and next id), but it is built from the live states
        alone: the states the trim would drop are never copied, and the
        walk never enters what lies only beyond a ``barrier`` edge.  A
        slice that no start→final path can take across a barrier tag is
        therefore the same machine as without the barrier, at the cost
        of its own region.  The starts are always kept, so the result is
        well-formed even when its language is empty — which is exactly
        when its ``finals`` are empty.  States are laid out in ascending
        id order, as the trim lays them out, never in the order of a
        set.  ``walked`` is as for :meth:`live_states`.
        """
        roots = set(starts)
        live = self.live_states(roots, finals, barrier, walked)
        edges = self._edges
        clone = Nfa(self.alphabet)
        clone._next_state = self._next_state
        # A dead root keeps no edge: a non-barrier edge into a live
        # state would have made it live.
        clone._edges = {
            state: [
                edge
                for edge in edges[state]
                if edge.dst in live and edge.tag not in barrier
            ]
            for state in sorted(live.union(roots))
        }
        clone.starts = roots
        clone.finals = live.intersection(finals)
        return clone

    def renumbered(self) -> tuple["Nfa", dict[int, int]]:
        """Copy with states renumbered densely from 0; returns the map."""
        mapping = {state: idx for idx, state in enumerate(sorted(self._edges))}
        clone = Nfa(self.alphabet)
        clone._next_state = len(mapping)
        clone._edges = {mapping[s]: [] for s in self._edges}
        for src, edge in self.edges():
            clone._edges[mapping[src]].append(
                Edge(edge.label, mapping[edge.dst], edge.tag)
            )
        clone.starts = {mapping[s] for s in self.starts}
        clone.finals = {mapping[s] for s in self.finals}
        return clone, mapping

    def map_states(self, fn: Callable[[int], int]) -> "Nfa":
        """Copy with every state id passed through ``fn`` (must be injective)."""
        clone = Nfa(self.alphabet)
        mapped = {fn(s) for s in self._edges}
        if len(mapped) != len(self._edges):
            raise ValueError("state mapping is not injective")
        clone._next_state = max(mapped, default=-1) + 1
        clone._edges = {fn(s): [] for s in self._edges}
        for src, edge in self.edges():
            clone._edges[fn(src)].append(Edge(edge.label, fn(edge.dst), edge.tag))
        clone.starts = {fn(s) for s in self.starts}
        clone.finals = {fn(s) for s in self.finals}
        return clone

    def normalized(self) -> "Nfa":
        """Copy with a single start state and a single final state.

        This is the form the paper's CI construction assumes (Sec. 3.2).
        Fresh states and ε-transitions are introduced only when needed.
        """
        clone = self.copy()
        if len(clone.starts) != 1:
            start = clone.add_state()
            for old in clone.starts:
                clone.add_epsilon(start, old)
            clone.starts = {start}
        if len(clone.finals) != 1:
            final = clone.add_state()
            for old in clone.finals:
                clone.add_epsilon(old, final)
            clone.finals = {final}
        return clone

    @property
    def start(self) -> int:
        """The unique start state (raises unless normalized)."""
        if len(self.starts) != 1:
            raise ValueError("machine does not have a unique start state")
        # dprle-lint: disable=L030 -- singleton by the guard above; the pick is unique
        return next(iter(self.starts))

    @property
    def final(self) -> int:
        """The unique final state (raises unless normalized)."""
        if len(self.finals) != 1:
            raise ValueError("machine does not have a unique final state")
        # dprle-lint: disable=L030 -- singleton by the guard above; the pick is unique
        return next(iter(self.finals))

    def __repr__(self) -> str:
        return (
            f"<Nfa states={self.num_states} transitions={self.num_transitions} "
            f"starts={sorted(self.starts)} finals={sorted(self.finals)}>"
        )
