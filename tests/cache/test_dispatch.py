"""One dispatch path for the kernels the language cache does not memoize.

``determinize``, ``complement`` and the two quotients never consult the
cache: with one active they build exactly the machine they build
without it, and they leave no ``cache.*`` counter behind (docs/CACHING.md,
"What is *not* cached").
"""

import pytest

from repro import obs
from repro.automata import ops
from repro.automata.dfa import Dfa, complement, determinize
from repro.cache import LangCache

from ..helpers import ABC, machine

PATTERNS = ("(ab)*c", "a(b|c)*|ca", "")


def _shape(result):
    """Everything a caller can read off a machine: states, edges,
    starts and finals, in a comparable form."""
    if isinstance(result, Dfa):
        edges = {
            state: sorted((label.ranges, dst) for label, dst in moves)
            for state, moves in result.transitions.items()
        }
        return ("dfa", edges, result.start, frozenset(result.finals))
    edges = sorted(
        (src, edge.label.ranges if edge.label is not None else None, edge.dst)
        for src, edge in result.edges()
    )
    return (
        "nfa",
        sorted(result.states),
        edges,
        frozenset(result.starts),
        frozenset(result.finals),
    )


UNARY = {"determinize": determinize, "complement": complement}
BINARY = {
    "left_quotient": ops.left_quotient,
    "right_quotient": ops.right_quotient,
}
CALLS = [(name, (left,)) for name in UNARY for left in PATTERNS] + [
    (name, (left, right))
    for name in BINARY
    for left in PATTERNS
    for right in PATTERNS
]


@pytest.mark.parametrize("name, patterns", CALLS)
def test_cached_call_is_the_uncached_call(name, patterns):
    kernel = {**UNARY, **BINARY}[name]
    uncached = kernel(*(machine(p, ABC) for p in patterns))
    cache = LangCache()
    with obs.collect() as collector, cache.activate():
        for _ in range(2):  # a second call must not hit a memo either
            cached = kernel(*(machine(p, ABC) for p in patterns))
            assert _shape(cached) == _shape(uncached)
    counters = collector.metrics.snapshot()["counters"]
    assert not [key for key in counters if key.startswith("cache.")]
    assert cache.stats()["entries"] == 0
