"""Finite-automata substrate: symbolic ε-NFAs, DFAs, and their algebra."""

from .alphabet import ASCII_PRINTABLE, BYTE_ALPHABET, Alphabet
from .analysis import (
    count_strings,
    enumerate_strings,
    is_finite,
    language_size,
    random_string,
    shortest_string,
)
from .charset import CharSet, minterms
from .dfa import Dfa, complement, determinize, minimize_dfa, minimize_nfa
from .equivalence import counterexample, equivalent, is_subset
from .fst import (
    Fst,
    FstEdge,
    char_map,
    delete_chars,
    escape_chars,
    lowercase,
    replace_all,
)
from .fst import identity as fst_identity
from .fst import image as fst_image
from .fst import preimage as fst_preimage
from .nfa import BridgeTag, Edge, Nfa
from .ops import (
    factor_closure,
    prefix_closure,
    suffix_closure,
    concat,
    difference,
    embed,
    eliminate_epsilon,
    intersect,
    left_quotient,
    optional,
    plus,
    product,
    reverse,
    right_quotient,
    star,
    union,
)
from .serialize import from_json, to_dot, to_json, to_table

__all__ = [
    "Alphabet",
    "BYTE_ALPHABET",
    "ASCII_PRINTABLE",
    "CharSet",
    "minterms",
    "Nfa",
    "Edge",
    "BridgeTag",
    "Dfa",
    "determinize",
    "complement",
    "minimize_dfa",
    "minimize_nfa",
    "concat",
    "union",
    "star",
    "plus",
    "optional",
    "product",
    "intersect",
    "eliminate_epsilon",
    "difference",
    "reverse",
    "prefix_closure",
    "suffix_closure",
    "factor_closure",
    "left_quotient",
    "right_quotient",
    "embed",
    "counterexample",
    "Fst",
    "FstEdge",
    "fst_identity",
    "fst_image",
    "fst_preimage",
    "char_map",
    "delete_chars",
    "escape_chars",
    "lowercase",
    "replace_all",
    "is_subset",
    "equivalent",
    "shortest_string",
    "enumerate_strings",
    "count_strings",
    "is_finite",
    "language_size",
    "random_string",
    "to_dot",
    "to_table",
    "to_json",
    "from_json",
]
