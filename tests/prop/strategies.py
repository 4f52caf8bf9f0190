"""Hypothesis strategies for regexes, machines, and small languages."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.automata import CharSet, Nfa
from repro.regex import ast, to_nfa

from ..helpers import AB

#: Letters of the tiny property-test alphabet.
LETTERS = "ab"


def charsets() -> st.SearchStrategy[CharSet]:
    return st.sets(st.sampled_from(LETTERS)).map(CharSet.of)


@st.composite
def regexes(draw, max_depth: int = 3) -> ast.Regex:
    """A random regex AST over the {a, b} alphabet."""
    if max_depth == 0:
        return draw(
            st.one_of(
                st.sampled_from([ast.EPSILON, ast.Literal("a"), ast.Literal("b")]),
                st.text(alphabet=LETTERS, min_size=1, max_size=3).map(ast.Literal),
                charsets().filter(bool).map(ast.Chars),
            )
        )
    shape = draw(st.integers(min_value=0, max_value=4))
    if shape == 0:
        return draw(regexes(max_depth=0))
    if shape == 1:
        left = draw(regexes(max_depth=max_depth - 1))
        right = draw(regexes(max_depth=max_depth - 1))
        return ast.concat(left, right)
    if shape == 2:
        left = draw(regexes(max_depth=max_depth - 1))
        right = draw(regexes(max_depth=max_depth - 1))
        return ast.alt(left, right)
    if shape == 3:
        return ast.star(draw(regexes(max_depth=max_depth - 1)))
    lo = draw(st.integers(min_value=0, max_value=2))
    span = draw(st.integers(min_value=0, max_value=2))
    inner = draw(regexes(max_depth=max_depth - 1))
    if inner.is_empty_language() or inner.is_epsilon():
        return inner
    return ast.Repeat(inner, lo, lo + span)


def machines(max_depth: int = 3) -> st.SearchStrategy[Nfa]:
    """A random NFA over the {a, b} alphabet, via regex compilation."""
    return regexes(max_depth=max_depth).map(lambda r: to_nfa(r, AB))


#: Labels for raw ε-NFAs: overlapping sets, and two ("a-c", "x") that
#: reach outside the {a, b} universe.
RAW_LABELS = [
    CharSet.of("a"),
    CharSet.of("b"),
    CharSet.of("ab"),
    CharSet.range("a", "c"),
    CharSet.of("x"),
]


def raw_labels() -> st.SearchStrategy[CharSet | None]:
    """An edge label: ε, a shared label object, or a fresh equal copy."""
    return st.one_of(
        st.none(),
        st.sampled_from(RAW_LABELS),
        st.sampled_from(RAW_LABELS).map(lambda label: CharSet(label.ranges)),
    )


@st.composite
def epsilon_nfas(draw, max_states: int = 5) -> Nfa:
    """A raw ε-NFA over {a, b}, built edge by edge rather than from a
    regex: any start set (several, or none), any final set (possibly
    empty), ε-cycles, overlapping labels and labels partly outside the
    alphabet universe."""
    size = draw(st.integers(min_value=1, max_value=max_states))
    nfa = Nfa(AB)
    nfa.add_states(size)
    state = st.integers(min_value=0, max_value=size - 1)
    edges = draw(st.lists(st.tuples(state, raw_labels(), state), max_size=3 * size))
    for src, label, dst in edges:
        nfa.add_transition(src, label, dst)
    nfa.starts = draw(st.sets(state))
    nfa.finals = draw(st.sets(state))
    return nfa


def short_strings(max_size: int = 5) -> st.SearchStrategy[str]:
    return st.text(alphabet=LETTERS, max_size=max_size)


def finite_languages(max_words: int = 4) -> st.SearchStrategy[list[str]]:
    """A small finite language, as an explicit list of words."""
    return st.lists(
        st.text(alphabet=LETTERS, max_size=3),
        min_size=1,
        max_size=max_words,
        unique=True,
    )
