"""Deterministic automata: subset construction, Hopcroft minimization.

The decision procedure itself works on ε-NFAs, but three supporting
operations need determinism: complementation (for subset *checking*),
language equivalence, and the NFA-minimization ablation the paper
suggests in Sec. 4.  DFAs here are always *complete* — every state has
an outgoing transition for every character — with labels forming a
partition of the alphabet universe.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .. import obs
from ..cache import active_cache
from . import bitset
from .alphabet import Alphabet
from .charset import CharSet
from .nfa import Nfa

__all__ = ["Dfa", "determinize", "complement", "minimize_dfa", "minimize_nfa"]


class Dfa:
    """A complete deterministic automaton over a symbolic alphabet.

    ``transitions[q]`` is a list of ``(label, dst)`` pairs whose labels
    partition ``alphabet.universe``.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        transitions: dict[int, list[tuple[CharSet, int]]],
        start: int,
        finals: set[int],
    ):
        self.alphabet = alphabet
        self.transitions = transitions
        self.start = start
        self.finals = finals

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def states(self) -> Iterable[int]:
        return self.transitions.keys()

    def delta(self, state: int, char: str | int) -> int:
        """The unique successor of ``state`` on ``char``.

        ``char`` must be drawn from the alphabet universe; a complete
        DFA partitions exactly that universe, so a character outside it
        has no successor *by construction*, not because the machine is
        broken.  The two failure modes get distinct errors.
        """
        cp = char if isinstance(char, int) else ord(char)
        for label, dst in self.transitions[state]:
            if cp in label:
                return dst
        if cp not in self.alphabet.universe:
            raise ValueError(
                f"character {cp!r} is outside the "
                f"{self.alphabet.name} alphabet universe"
            )
        raise ValueError(f"incomplete DFA: no move from {state} on {cp!r}")

    def accepts(self, text: str) -> bool:
        """Membership in ``L(self)``.

        Strings using characters outside the alphabet universe are
        simply not in the language (``L ⊆ Σ*``), so they answer False
        rather than raising.
        """
        if not self.alphabet.contains_string(text):
            return False
        state = self.start
        for ch in text:
            state = self.delta(state, ch)
        return state in self.finals

    def complemented(self) -> "Dfa":
        """Same machine with final and non-final states swapped.

        The per-state move lists are copied, not shared: the complement
        must stay independent of later in-place edits to either machine.
        """
        finals = set(self.transitions) - self.finals
        transitions = {
            state: list(moves) for state, moves in self.transitions.items()
        }
        return Dfa(self.alphabet, transitions, self.start, finals)

    def is_empty(self) -> bool:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            state = queue.popleft()
            if state in self.finals:
                return False
            for _, dst in self.transitions[state]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return True

    def to_nfa(self) -> Nfa:
        """View this DFA as an NFA (states are renumbered densely)."""
        nfa = Nfa(self.alphabet)
        mapping = {state: nfa.add_state() for state in sorted(self.transitions)}
        for src, moves in self.transitions.items():
            for label, dst in moves:
                nfa.add_transition(mapping[src], label, mapping[dst])
        nfa.starts = {mapping[self.start]}
        nfa.finals = {mapping[s] for s in self.finals}
        return nfa

    def __repr__(self) -> str:
        return f"<Dfa states={self.num_states} finals={len(self.finals)}>"


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction producing a complete DFA.

    Symbolic labels are handled by mintermizing the labels leaving each
    subset state, so the construction never enumerates individual
    characters.  Memoized per machine by the active language cache.
    """
    cache = active_cache()
    if cache is not None:
        return cache.determinize(nfa)
    return _determinize_instrumented(nfa)


def _determinize_instrumented(nfa: Nfa) -> Dfa:
    obs.count_operation("determinize")
    with obs.span("determinize", states_in=nfa.num_states) as sp:
        dfa = bitset.determinize(nfa)
        sp.set("states_out", dfa.num_states)
        return dfa


def complement(nfa: Nfa) -> Nfa:
    """The NFA for ``Σ* \\ L(nfa)``; signature-memoized when cached."""
    cache = active_cache()
    if cache is not None:
        return cache.complement(nfa)
    return _complement_instrumented(nfa)


def _complement_instrumented(nfa: Nfa) -> Nfa:
    obs.count_operation("complement")
    with obs.span("complement", states_in=nfa.num_states) as sp:
        result = determinize(nfa).complemented().to_nfa()
        sp.set("states_out", result.num_states)
        return result


def minimize_dfa(dfa: Dfa) -> Dfa:
    """Hopcroft's partition-refinement minimization.

    Symbolic labels are first globally mintermized; each block then acts
    as one input symbol.  Unreachable states are dropped before
    refinement, and the result is numbered canonically (BFS from the
    start state, successors in ascending label order).  An incomplete
    DFA raises ``ValueError``.
    """
    obs.count_operation("minimize")
    with obs.span("hopcroft", states_in=dfa.num_states) as sp:
        out = bitset.minimize_dfa(dfa)
        sp.set("states_out", out.num_states)
        return out


def minimize_nfa(nfa: Nfa) -> Nfa:
    """Canonical minimal *deterministic* machine for ``L(nfa)``, as an NFA.

    This is the intermediate-machine minimization the paper suggests
    (Sec. 4) as a remedy for the ``secure`` outlier; the ablation
    benchmark toggles it.  With a language cache active the minimal
    machine falls out of the signature computation and is memoized by
    signature, so equivalent machines minimize once.
    """
    cache = active_cache()
    if cache is not None:
        return cache.minimize(nfa)
    return _minimize_nfa_instrumented(nfa)


def _minimize_nfa_instrumented(nfa: Nfa) -> Nfa:
    with obs.span("minimize", states_in=nfa.num_states) as sp:
        out = minimize_dfa(determinize(nfa)).to_nfa().trim()
        sp.set("states_out", out.num_states)
        return out
