"""The automata kernel set, as named in run records.

dprle has one kernel per operation: the bitset kernels in
:mod:`repro.automata.bitset` for determinize, Hopcroft, product and
the universal left quotient, and the lazy inclusion check in
:mod:`repro.automata.equivalence`.  Benchmarks record
``active_backend().name`` next to their numbers; ``docs/BACKENDS.md``
states the contract each kernel keeps.
"""

from __future__ import annotations

from types import ModuleType

from . import bitset

__all__ = ["active_backend"]


def active_backend() -> ModuleType:
    """The kernel set every automata operation runs on."""
    return bitset
