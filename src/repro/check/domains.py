"""Sound abstract domains over the dependency graph.

Two cheap over-approximations of regular languages, evaluated over a
:class:`~repro.constraints.depgraph.DepGraph` *before* any subset
construction runs:

* **Length intervals** — ``[lo, hi]`` bounds on member word lengths
  (``hi = None`` means unbounded).  Concatenation is interval
  addition, intersection is interval meet.
* **Character footprints** — a :class:`~repro.automata.charset.CharSet`
  containing every character that can occur in any member word.
  Concatenation is set union, intersection is set intersection.

Both are genuine abstract interpretations: for every node ``n`` the
computed :class:`AbstractLang` over-approximates the set of strings
``n`` can carry in *any* assignment that satisfies all subset
constraints while keeping every variable non-empty — exactly the
candidate space the GCI enumeration explores (viable combinations
never map a variable to ∅, see ``gci._run_checks``).  A node
that is structurally non-empty under that assumption but whose
abstract value is empty therefore *proves* the instance has no
satisfying assignments at all, without determinizing anything.

Constraint information flows both ways, mirroring the paper's
Sec. 3.4.1 ``nid_5`` observation: a subset constraint on a
concatenation result refines the *operands* via interval subtraction
and footprint restriction (a sound quotient in both domains).  The
backward step is only applied when the sibling operand is known
non-empty — with an empty sibling the concatenation is empty and the
constraint imposes nothing.

The refinement loop is monotone (values only shrink), so truncating it
at any round count is sound; :data:`MAX_ROUNDS` bounds the worst case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..automata.analysis import is_finite
from ..automata.charset import CharSet
from ..automata.nfa import Nfa
from ..constraints.depgraph import ConcatPair, DepGraph, Node

__all__ = [
    "LengthInterval",
    "AbstractLang",
    "GraphAbstraction",
    "abstract_of",
    "evaluate_graph",
    "render_charset",
]

#: Hard bound on refinement rounds.  Each round only shrinks values,
#: so stopping early is sound — the analysis just proves less.
MAX_ROUNDS = 16


@dataclass(frozen=True)
class LengthInterval:
    """Closed interval of word lengths; ``hi=None`` means unbounded.

    The canonical empty interval is ``[1, 0]``; every operation
    normalizes through :meth:`make`.
    """

    lo: int
    hi: Optional[int]

    @classmethod
    def make(cls, lo: int, hi: Optional[int]) -> "LengthInterval":
        lo = max(lo, 0)
        if hi is not None and hi < lo:
            return _EMPTY_INTERVAL
        return cls(lo, hi)

    @classmethod
    def top(cls) -> "LengthInterval":
        return _TOP_INTERVAL

    @classmethod
    def empty(cls) -> "LengthInterval":
        return _EMPTY_INTERVAL

    @classmethod
    def exact(cls, length: int) -> "LengthInterval":
        return cls.make(length, length)

    def is_empty(self) -> bool:
        return self.hi is not None and self.lo > self.hi

    def add(self, other: "LengthInterval") -> "LengthInterval":
        """Interval addition: lengths of concatenated words."""
        if self.is_empty() or other.is_empty():
            return _EMPTY_INTERVAL
        hi: Optional[int] = None
        if self.hi is not None and other.hi is not None:
            hi = self.hi + other.hi
        return LengthInterval.make(self.lo + other.lo, hi)

    def meet(self, other: "LengthInterval") -> "LengthInterval":
        """Interval intersection."""
        if self.is_empty() or other.is_empty():
            return _EMPTY_INTERVAL
        hi: Optional[int]
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return LengthInterval.make(max(self.lo, other.lo), hi)

    def minus(self, other: "LengthInterval") -> "LengthInterval":
        """Sound quotient: lengths ``x`` with ``x + y ∈ self`` for some
        ``y ∈ other`` (used to refine one concatenation operand from
        the result and its sibling)."""
        if self.is_empty() or other.is_empty():
            return _EMPTY_INTERVAL
        lo = 0 if other.hi is None else max(0, self.lo - other.hi)
        hi = None if self.hi is None else self.hi - other.lo
        if hi is not None and hi < 0:
            return _EMPTY_INTERVAL
        return LengthInterval.make(lo, hi)

    def to_list(self) -> list[Optional[int]]:
        return [self.lo, self.hi]

    def __str__(self) -> str:
        if self.is_empty():
            return "∅"
        hi = "∞" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"


_EMPTY_INTERVAL = LengthInterval(1, 0)
_TOP_INTERVAL = LengthInterval(0, None)


@dataclass(frozen=True)
class AbstractLang:
    """The product domain: a length interval and a character footprint.

    Invariants (enforced by :meth:`make`): an empty footprint admits at
    most the empty word, and a ``[0, 0]`` interval forces an empty
    footprint — so emptiness of the abstract value is simply emptiness
    of its interval.
    """

    length: LengthInterval
    chars: CharSet

    @classmethod
    def make(cls, length: LengthInterval, chars: CharSet) -> "AbstractLang":
        if length.is_empty():
            return cls(LengthInterval.empty(), CharSet.empty())
        if chars.is_empty():
            # Only ε is expressible without characters.
            length = length.meet(LengthInterval.exact(0))
            if length.is_empty():
                return cls(LengthInterval.empty(), CharSet.empty())
        if length.hi == 0:
            chars = CharSet.empty()
        return cls(length, chars)

    @classmethod
    def top(cls, universe: CharSet) -> "AbstractLang":
        return cls.make(LengthInterval.top(), universe)

    @classmethod
    def bottom(cls) -> "AbstractLang":
        return cls(LengthInterval.empty(), CharSet.empty())

    def is_empty(self) -> bool:
        return self.length.is_empty()

    def concat(self, other: "AbstractLang") -> "AbstractLang":
        if self.is_empty() or other.is_empty():
            return AbstractLang.bottom()
        return AbstractLang.make(
            self.length.add(other.length), self.chars | other.chars
        )

    def meet(self, other: "AbstractLang") -> "AbstractLang":
        return AbstractLang.make(
            self.length.meet(other.length), self.chars & other.chars
        )

    def quotient(self, sibling: "AbstractLang") -> "AbstractLang":
        """Over-approximate the words ``x`` such that ``x·y`` (or
        ``y·x``) lies in ``self`` for some word ``y`` admitted by the
        *non-empty* ``sibling``.  Footprints of factors never exceed
        the footprint of the whole word, and lengths subtract."""
        if self.is_empty():
            return AbstractLang.bottom()
        return AbstractLang.make(self.length.minus(sibling.length), self.chars)

    def __str__(self) -> str:
        if self.is_empty():
            return "⊥"
        return f"(len {self.length}, chars {render_charset(self.chars)})"


def render_charset(chars: CharSet, max_ranges: int = 8) -> str:
    """Compact human-readable rendering of a character footprint."""
    if chars.is_empty():
        return "∅"
    parts: list[str] = []
    for lo, hi in chars.ranges[:max_ranges]:
        lo_s = _render_char(lo)
        if lo == hi:
            parts.append(lo_s)
        else:
            parts.append(f"{lo_s}-{_render_char(hi)}")
    if len(chars.ranges) > max_ranges:
        parts.append("…")
    return "[" + "".join(parts) + "]"


def _render_char(cp: int) -> str:
    ch = chr(cp)
    if ch in "\\]-^[":
        return "\\" + ch
    if 0x20 <= cp <= 0x7E:
        return ch
    if cp <= 0xFF:
        return f"\\x{cp:02x}"
    return f"\\u{cp:04x}"


# -- machine abstraction ----------------------------------------------------


def abstract_of(machine: Nfa) -> AbstractLang:
    """The best value of the product domain for a concrete machine.

    Exact on emptiness; the interval is tight (shortest and — for
    finite languages — longest member length); the footprint is the
    union of live transition labels, which is exact for the set of
    characters that occur in *some* member.
    """
    trimmed = machine.trim()
    if trimmed.is_empty():
        return AbstractLang.bottom()
    chars = CharSet.empty()
    for _src, edge in trimmed.edges():
        if edge.label is not None:
            chars = chars | edge.label
    return AbstractLang.make(
        LengthInterval.make(_min_length(trimmed), _max_length(trimmed)), chars
    )


def _min_length(trimmed: Nfa) -> int:
    """Length of a shortest member (0-1 BFS; trimmed, non-empty input)."""
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    # dprle-lint: disable=L030 -- returns the minimum length; 0-1 BFS tie order cannot change it
    for start in trimmed.starts:
        dist[start] = 0
        queue.appendleft(start)
    while queue:
        state = queue.popleft()
        if state in trimmed.finals:
            return dist[state]
        for edge in trimmed.out_edges(state):
            cost = 0 if edge.is_epsilon else 1
            candidate = dist[state] + cost
            if edge.dst not in dist or candidate < dist[edge.dst]:
                dist[edge.dst] = candidate
                if cost == 0:
                    queue.appendleft(edge.dst)
                else:
                    queue.append(edge.dst)
    # Trimmed non-empty machines always reach a final.
    raise AssertionError("no final reachable in a trimmed non-empty machine")


def _max_length(trimmed: Nfa) -> Optional[int]:
    """Length of a longest member, or None when the language is
    infinite.  For finite languages no character-bearing cycle exists,
    so member lengths are bounded by the number of live states; a
    reachable-set DP over that many steps finds the last length at
    which a final state is reachable."""
    if not is_finite(trimmed):
        return None
    bound = trimmed.num_states
    current = trimmed.epsilon_closure(trimmed.starts)
    best = 0
    for step in range(1, bound + 1):
        moved = {
            edge.dst
            for state in current
            for edge in trimmed.out_edges(state)
            if edge.label is not None
        }
        if not moved:
            break
        current = trimmed.epsilon_closure(moved)
        if current & trimmed.finals:
            best = step
    return best


# -- graph evaluation -------------------------------------------------------


@dataclass
class GraphAbstraction:
    """The fixpoint of the domains over one dependency graph.

    ``values`` maps every node to its abstract language;
    ``may_be_nonempty`` records structural non-emptiness under the
    all-variables-non-empty assumption (constants: machine non-empty;
    variables: assumed; temporaries: both operands non-empty).
    """

    values: dict[Node, AbstractLang]
    may_be_nonempty: dict[Node, bool]

    def value(self, node: Node) -> AbstractLang:
        return self.values[node]

    def proved_empty(self, node: Node) -> bool:
        """The node's language is ∅ in every satisfying assignment
        (within the candidate space where variables are non-empty)."""
        return self.values[node].is_empty()

    def unsat_witness(self, group: set[Node]) -> Optional[Node]:
        """A node proving the CI-group admits no solutions, if any.

        A node that is structurally non-empty whenever all variables
        are non-empty, yet abstractly empty, contradicts the existence
        of any viable bridge combination: the group — and with it the
        whole instance — is unsatisfiable.
        """
        for node in sorted(group, key=lambda n: (n.kind, n.name)):
            if self.may_be_nonempty[node] and self.values[node].is_empty():
                return node
        return None


def evaluate_graph(graph: DepGraph) -> GraphAbstraction:
    """Run both domains over the graph to a (truncated) fixpoint.

    Soundness argument, per refinement step:

    * *Inbound meet* — ``n ⊆ c`` implies every string of ``n`` is in
      ``L(c)``, hence inside ``c``'s abstraction.
    * *Forward concat* — a temporary's strings are exactly
      ``L(left)·L(right)``, over-approximated by the operands'
      abstract concatenation.
    * *Backward quotient* — if the sibling operand is non-empty, every
      string ``x`` of an operand extends to some ``x·y`` (resp.
      ``y·x``) carried by the temporary, so ``x``'s length lies in the
      temporary's interval minus the sibling's, and ``x``'s characters
      lie in the temporary's footprint.  With a possibly-empty sibling
      the step is skipped.

    Every step shrinks values, so the truncated iteration is a sound
    over-approximation of the true fixpoint.
    """
    universe = graph.alphabet.universe
    const_cache: dict[str, AbstractLang] = {}
    values: dict[Node, AbstractLang] = {}
    for node in graph.nodes:
        if node.is_const:
            if node.name not in const_cache:
                const_cache[node.name] = abstract_of(graph.machine(node))
            values[node] = const_cache[node.name]
        else:
            values[node] = AbstractLang.top(universe)

    may_be_nonempty: dict[Node, bool] = {}
    for node in graph.nodes:
        if node.is_const:
            may_be_nonempty[node] = not values[node].is_empty()
        elif node.is_var:
            may_be_nonempty[node] = True
    for pair in _pairs_in_order(graph):
        may_be_nonempty[pair.result] = (
            may_be_nonempty[pair.left] and may_be_nonempty[pair.right]
        )

    ordered_pairs = _pairs_in_order(graph)
    rounds = min(MAX_ROUNDS, 2 + len(ordered_pairs))
    for _ in range(rounds):
        changed = False

        def refine(node: Node, refined: AbstractLang) -> None:
            nonlocal changed
            met = values[node].meet(refined)
            if met != values[node]:
                values[node] = met
                changed = True

        for node in graph.nodes:
            if node.is_const:
                continue
            for const_node in graph.inbound_subsets(node):
                refine(node, values[const_node])
        for pair in ordered_pairs:
            refine(pair.result, values[pair.left].concat(values[pair.right]))
            result = values[pair.result]
            left, right = values[pair.left], values[pair.right]
            if may_be_nonempty[pair.right] and not right.is_empty():
                refine(pair.left, result.quotient(right))
            if may_be_nonempty[pair.left] and not left.is_empty():
                refine(pair.right, result.quotient(left))
        if not changed:
            break
    return GraphAbstraction(values=values, may_be_nonempty=may_be_nonempty)


def _pairs_in_order(graph: DepGraph) -> list[ConcatPair]:
    """Concat pairs ordered operands-before-results when acyclic; the
    declaration order otherwise (the cycle is reported separately as a
    D016 diagnostic, and any order stays sound)."""
    order: dict[Node, int] = {}
    try:
        for group in graph.ci_groups():
            for index, temp in enumerate(graph.group_temps_in_order(group)):
                order[temp] = index
    except ValueError:
        return list(graph.concat_pairs)
    return sorted(
        graph.concat_pairs,
        key=lambda pair: order.get(pair.result, len(order)),
    )
