"""Shared test utilities: small alphabets, oracles, and samplers."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from repro.automata import BYTE_ALPHABET, Alphabet, CharSet, Nfa, ops
from repro.constraints.depgraph import DepGraph, Node
from repro.constraints.terms import ConcatTerm, Const, Problem, Subset, Var
from repro.regex import parse_exact, to_nfa
from repro.solver import gci

#: A three-letter alphabet keeps exhaustive oracles cheap.
ABC = Alphabet(CharSet.of("abc"), name="abc")

#: Two letters, for the property tests that enumerate all strings.
AB = Alphabet(CharSet.of("ab"), name="ab")

#: A DSL instance whose one CI-group needs 61³ = 226,981 bridge
#: combinations, over the default ``GciLimits.max_combinations``; it is
#: refused before any enumeration, so it fails fast.
OVER_LIMIT_SOURCE = "var a, b, c, d;\na . b . c . d <= /[ab]{0,60}/;\n"

#: Three variables, two concatenations sharing the middle one; each
#: constant has enough bridge crossings for a 225-combination space.
WIDE = """
var va, vb, vc;
va <= /(a|b)*/;
vb <= /(a|b)*/;
vc <= /(a|b)*/;
va . vb <= /(a|b){7}/;
vb . vc <= /(a|b){7}/;
"""

#: Leaf machine size of the Sec. 3.5 chain family (:func:`chain_problem`).
CHAIN_Q = 5


def machine(pattern: str, alphabet: Alphabet = ABC) -> Nfa:
    """Compile a language-level regex over the test alphabet."""
    return to_nfa(parse_exact(pattern, alphabet), alphabet)


def all_strings(alphabet: Alphabet, max_length: int) -> Iterator[str]:
    """Every string over the alphabet up to the given length (shortlex)."""
    letters = [chr(cp) for cp in alphabet.universe.codepoints()]
    for length in range(max_length + 1):
        for combo in itertools.product(letters, repeat=length):
            yield "".join(combo)


def language(nfa: Nfa, max_length: int = 6) -> set[str]:
    """The finite slice of ``L(nfa)`` up to ``max_length`` — an exact
    oracle for comparing automata over small alphabets."""
    return {w for w in all_strings(nfa.alphabet, max_length) if nfa.accepts(w)}


def random_nfa(
    num_states: int,
    seed: int,
    alphabet: Alphabet = BYTE_ALPHABET,
    edge_factor: float = 1.6,
    label_style: str = "overlap",
) -> Nfa:
    """A random trim NFA with ``num_states`` states.

    A backbone chain start→…→final guarantees the machine is non-empty
    and every state is live; extra random class-labelled edges (some
    backwards, giving cycles) provide nondeterminism.  Deterministic in
    ``seed``.

    ``label_style="overlap"`` makes every label contain ``'a'``, so
    products of independently random machines keep non-trivial
    intersections even at large Q (the single-CI scaling sweep needs
    this, otherwise it mostly measures empty machines).  ``"banded"``
    draws independent sub-ranges instead — sparser intersections, which
    keeps multi-call enumeration (the chain family) tractable.
    """
    rng = random.Random(seed)
    machine = Nfa(alphabet)
    states = machine.add_states(num_states)
    lo, hi = 97, 110  # labels drawn from a 14-letter band

    def random_label() -> CharSet:
        if label_style == "overlap":
            return CharSet.range(lo, rng.randrange(lo, hi))
        a = rng.randrange(lo, hi)
        return CharSet.range(a, rng.randrange(a, hi))

    for i in range(num_states - 1):
        machine.add_transition(states[i], random_label(), states[i + 1])
    extra = int(num_states * edge_factor)
    for _ in range(extra):
        src = rng.choice(states)
        dst = rng.choice(states)
        machine.add_transition(src, random_label(), dst)
    machine.starts = {states[0]}
    machine.finals = {states[-1]}
    return machine


def chain_problem(k: int) -> Problem:
    """The Sec. 3.5 chain: k nested prefix constraints over k+1 variables.

    The paper's example system is ``v1 · v2 ⊆ c4``, ``v1 · v2 · v3 ⊆
    c5``: two inductive concat_intersect applications.  Each chain
    constant is the union of a random machine with the concatenation of
    the affected leaves' languages, so every chain length stays
    satisfiable and the enumeration is non-trivial.
    """
    variables = [Var(f"v{i}") for i in range(k + 1)]
    leaf_machines = [
        random_nfa(
            CHAIN_Q, seed=100 + index, edge_factor=0.8, label_style="banded"
        )
        for index in range(k + 1)
    ]
    constraints = [
        Subset(var, Const(f"c{index}", leaf_machines[index]))
        for index, var in enumerate(variables)
    ]
    for step in range(1, k + 1):
        prefix = variables[: step + 1]
        term = prefix[0] if len(prefix) == 1 else ConcatTerm(tuple(prefix))
        exact = leaf_machines[0]
        for machine in leaf_machines[1 : step + 1]:
            exact = ops.concat(exact, machine)
        loose = ops.union(
            random_nfa(
                CHAIN_Q + step,
                seed=200 + step,
                edge_factor=0.8,
                label_style="banded",
            ),
            exact,
        )
        constraints.append(Subset(term, Const(f"k{step}", loose)))
    return Problem(constraints)


def raw_walk(
    graph: DepGraph,
    group: set[Node],
    max_combinations: int = gci.GciLimits.max_combinations,
    progress: Optional[list[int]] = None,
) -> tuple[Optional["gci._PreparedGroup"], Iterator[tuple[int, dict[Node, Nfa]]]]:
    """Prepare one CI-group and start its raw stage-5 walk.

    Returns ``(prepared, walk)``: the group after stages 1-4, and a
    generator of ``(index, solution)`` for its viable bridge
    combinations in canonical order — the raw slices, neither maximized
    nor pruned as subsumed (``gci._maximized`` and ``gci._select`` take
    it from there).  ``prepared`` is ``None`` and the walk empty when
    some concatenation is unrealizable.  ``progress`` is as for
    ``gci._iter_candidates``: it counts the combinations the walk
    settles.
    """
    limits = gci.GciLimits(max_combinations=max_combinations)
    prepared = gci._prepare_group(graph, group, limits)
    if prepared is None:
        return None, iter(())
    return prepared, gci._iter_candidates(prepared, 0, None, progress)
