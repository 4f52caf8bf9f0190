"""Shared test utilities: small alphabets, oracles, and samplers."""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.automata import Alphabet, CharSet, Nfa
from repro.regex import parse_exact, to_nfa

#: A three-letter alphabet keeps exhaustive oracles cheap.
ABC = Alphabet(CharSet.of("abc"), name="abc")

#: Two letters, for the property tests that enumerate all strings.
AB = Alphabet(CharSet.of("ab"), name="ab")

#: A DSL instance whose one CI-group needs 61³ = 226,981 bridge
#: combinations, over the default ``GciLimits.max_combinations``; it is
#: refused before any enumeration, so it fails fast.
OVER_LIMIT_SOURCE = "var a, b, c, d;\na . b . c . d <= /[ab]{0,60}/;\n"


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
