"""Structure-keyed memoization of language-level automata work.

The paper's cost model counts NFA state visits (Sec. 3.5), and the
solver's hot paths — CI-group enumeration, solution subsumption, Galois
maximization — keep redoing automata work on machines built moments
earlier.  This module provides a *solver-scoped* memoization layer over
those operations.

One key: every entry is keyed by the **structural digest**
(:meth:`LangCache.struct_key`) of its operands — a cheap ``O(edges)``
canonical serialization of an NFA as-is (states densely renumbered,
edges sorted, charset labels serialized by their interval ranges,
bridge tags ignored, alphabet universe included).  Structurally
identical machines — the common case for the per-combination slices
the GCI enumeration mints and for the constants every solve rebuilds
— share it without any automata construction.  Equal digests imply
equal languages; the converse does not hold, and nothing here pays a
determinization to find language-equal machines of different
structure.

What is memoized is exactly what the workloads hit:
:meth:`LangCache.intersect`, :meth:`LangCache.is_subset` verdicts
(``equivalent`` is two of them), :meth:`LangCache.minimize` (the
rendering of every answer, which a daemon repeats) and
:meth:`LangCache.eliminate_epsilon`.  Every other kernel —
``determinize``, ``complement``, the quotients — has one uncached path.

Scoping — the cache is **solver-scoped, not global**: a
:class:`LangCache` is held by :class:`~repro.solver.api.RegLangSolver`,
by ``dprle solve`` and by the solve daemon, and activated for a
dynamic extent with :meth:`LangCache.activate`, a context variable in
the same style as :mod:`repro.obs`.  Nothing is shared across solvers,
and dropping the solver drops the cache.  For state that must outlive
a process — the solve daemon's restarts, replicas sharing one warm
tier — attach a persistent :class:`repro.cache.store.SignatureStore`:
the LRU table stays the fast path, persistable entry classes are
written through to disk, and LRU misses fall back to the store.

Caveats (see ``docs/CACHING.md``):

* Cached machines are returned as fresh copies, so callers may mutate
  them freely; the stored machine is private to the cache.
* Cached results are language-faithful but not *tag*-faithful: the
  digest ignores bridge tags, so a hit may return a machine whose tags
  differ from the ones a fresh computation would carry (and a machine
  loaded from the persistent store carries freshly minted tags).  The
  structure-sensitive GCI paths therefore never go through the cache:
  :func:`~repro.automata.ops.product` and the stage-1/stage-2
  machine construction in ``gci._prepare_group`` call the uncached
  product directly, because the bridge images enumerated in stage 4
  are read off those machines' tagged edges.
  Cached ``intersect`` is reserved for purely language-level uses
  (share intersection in ``_share_intersection``, maximization caps).
* Mutating a machine *after* the cache has fingerprinted it is detected
  by a cheap staleness stamp (state/transition counts plus start/final
  sets); in-place edits that preserve all of those would evade it, but
  no public ``Nfa`` API can do that.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional
from weakref import ref as weakref_ref

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..automata.nfa import Nfa
    from .store import SignatureStore

__all__ = ["CacheLimits", "LangCache", "active_cache", "struct_digest"]


@dataclass
class CacheLimits:
    """Knobs for the language cache.

    ``enabled=False`` turns the layer into a no-op (``activate`` does
    not install the cache); ``max_entries`` bounds the memoization
    table, evicted least-recently-used first.
    """

    enabled: bool = True
    max_entries: int = 4096


class _Rec:
    """Per-object fingerprint record: the lazily computed digest of one
    ``Nfa`` instance, guarded against mutation by ``stamp``."""

    __slots__ = ("ref", "stamp", "struct")

    def __init__(self, nfa: "Nfa", stamp: tuple):
        self.ref = weakref_ref(nfa)
        self.stamp = stamp
        self.struct: Optional[str] = None


def _stamp(nfa: "Nfa") -> tuple:
    """A cheap mutation detector for the per-object record."""
    return (
        nfa.num_states,
        nfa.num_transitions,
        hash(frozenset(nfa.starts)),
        hash(frozenset(nfa.finals)),
    )


def struct_digest(nfa: "Nfa") -> str:
    """Canonical structural serialization (tag-blind), hashed.

    States are renumbered densely by sorted id and every state's edges
    are sorted by (label intervals, destination), so machines that are
    equal up to the state-id gaps left by ``trim`` share a digest.
    """
    order = {state: idx for idx, state in enumerate(sorted(nfa.states))}
    hasher = hashlib.sha256()
    hasher.update(repr(nfa.alphabet.universe.ranges).encode())
    hasher.update(repr(sorted(order[s] for s in nfa.starts)).encode())
    hasher.update(repr(sorted(order[s] for s in nfa.finals)).encode())
    for state in sorted(nfa.states):
        edges = sorted(
            (
                edge.label is None,  # ε-edges sort after labelled ones
                edge.label.ranges if edge.label is not None else (),
                order[edge.dst],
            )
            for edge in nfa.out_edges(state)
        )
        hasher.update(repr((order[state], edges)).encode())
    return hasher.hexdigest()


class LangCache:
    """Solver-scoped memoization of language-level automata operations.

    All entries live in one LRU table keyed by tuples whose first
    element names the operation; hit/miss/eviction counts are kept on
    the instance (:meth:`stats`) and mirrored into the active
    :mod:`repro.obs` collector as ``cache.hit.<op>`` /
    ``cache.miss.<op>`` / ``cache.evictions`` counters.
    """

    def __init__(
        self,
        limits: Optional[CacheLimits] = None,
        store: Optional["SignatureStore"] = None,
    ):
        self.limits = limits or CacheLimits()
        # Optional persistent tier (repro.cache.store): consulted on an
        # LRU miss for persistable entry classes, written through on
        # every persistable insert.  The LRU table stays the fast path.
        self.store = store
        self._table: OrderedDict[tuple, Any] = OrderedDict()
        self._recs: dict[int, _Rec] = {}
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        self.evictions = 0

    # -- activation ----------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["LangCache"]:
        """Install this cache for the dynamic extent of the block.

        A disabled cache (``limits.enabled=False``) or a block already
        running under another active cache leaves the context variable
        untouched, so caches never stack or leak across solves.
        """
        if not self.limits.enabled or _active.get() is not None:
            yield self
            return
        token = _active.set(self)
        try:
            yield self
        finally:
            _active.reset(token)

    # -- bookkeeping ---------------------------------------------------

    def _hit(self, op: str) -> None:
        self.hits[op] = self.hits.get(op, 0) + 1
        obs.increment_metric(f"cache.hit.{op}")

    def _miss(self, op: str) -> None:
        self.misses[op] = self.misses.get(op, 0) + 1
        obs.increment_metric(f"cache.miss.{op}")

    def _get(self, key: tuple) -> Any:
        value = self._table.get(key)
        if value is not None:
            self._table.move_to_end(key)
            return value
        if self.store is not None:
            # Persistent-tier fallback: a hit is installed in the LRU
            # table *without* writing back through (it is already on
            # disk).  load() returns None for non-persistable keys.
            loaded = self.store.load(key)
            if loaded is not None:
                self._install(key, loaded)
                return loaded
        return None

    def _install(self, key: tuple, value: Any) -> None:
        """Insert into the LRU table (evicting as needed), no store write."""
        self._table[key] = value
        self._table.move_to_end(key)
        while len(self._table) > self.limits.max_entries:
            self._table.popitem(last=False)
            self.evictions += 1
            obs.increment_metric("cache.evictions")
        obs.set_gauge("cache.entries", len(self._table))

    def _put(self, key: tuple, value: Any) -> None:
        self._install(key, value)
        if self.store is not None:
            self.store.save(key, value)

    def stats(self) -> dict[str, Any]:
        """A JSON-ready summary of the cache's activity."""
        summary = {
            "entries": len(self._table),
            "max_entries": self.limits.max_entries,
            "hits": dict(sorted(self.hits.items())),
            "misses": dict(sorted(self.misses.items())),
            "evictions": self.evictions,
            "hit_total": sum(self.hits.values()),
            "miss_total": sum(self.misses.values()),
        }
        if self.store is not None:
            summary["store"] = self.store.stats()
        return summary

    def clear(self) -> None:
        self._table.clear()
        self._recs.clear()

    # -- fingerprints ---------------------------------------------------

    def _rec(self, nfa: "Nfa") -> _Rec:
        stamp = _stamp(nfa)
        rec = self._recs.get(id(nfa))
        if rec is None or rec.ref() is not nfa or rec.stamp != stamp:
            rec = _Rec(nfa, stamp)
            self._recs[id(nfa)] = rec
            if len(self._recs) > 4 * self.limits.max_entries:
                self._recs = {
                    key: value
                    for key, value in self._recs.items()
                    if value.ref() is not None
                }
        return rec

    def struct_key(self, nfa: "Nfa") -> str:
        """The structural digest of ``nfa``, memoized per object."""
        rec = self._rec(nfa)
        if rec.struct is None:
            rec.struct = struct_digest(nfa)
        return rec.struct

    # -- memoized operations -------------------------------------------

    def _memoized(
        self, op: str, key: tuple, compute: Callable[[], "Nfa"]
    ) -> "Nfa":
        stored = self._get(key)
        if stored is not None:
            self._hit(op)
            return stored.copy()
        self._miss(op)
        result = compute()
        self._put(key, result.copy())
        return result

    def minimize(self, nfa: "Nfa") -> "Nfa":
        """Memoized canonical minimization."""
        from ..automata.dfa import _minimize_nfa_instrumented

        key = ("min", self.struct_key(nfa))
        return self._memoized(
            "minimize", key, lambda: _minimize_nfa_instrumented(nfa)
        )

    def eliminate_epsilon(self, nfa: "Nfa") -> "Nfa":
        """Memoized ε-elimination (never persisted; see
        :mod:`repro.cache.store`)."""
        from ..automata.ops import _eliminate_epsilon_instrumented

        key = ("elim_eps", self.struct_key(nfa))
        return self._memoized(
            "eliminate_epsilon", key, lambda: _eliminate_epsilon_instrumented(nfa)
        )

    def intersect(self, a: "Nfa", b: "Nfa") -> "Nfa":
        """Memoized intersection (commutative key)."""
        from ..automata.ops import product

        if a.alphabet != b.alphabet:
            raise ValueError("cannot intersect machines over different alphabets")
        key = ("intersect",) + tuple(
            sorted((self.struct_key(a), self.struct_key(b)))
        )
        return self._memoized("intersect", key, lambda: product(a, b))

    def is_subset(self, a: "Nfa", b: "Nfa") -> bool:
        """Memoized inclusion: the lazy on-the-fly check (no forced
        determinization, early counterexample exit), its verdict keyed
        by the operands' structural digests.  Equal digests mean equal
        languages, so they short-circuit to True."""
        from ..automata.equivalence import counterexample

        if a.alphabet != b.alphabet:
            raise ValueError("cannot compare machines over different alphabets")
        if a.is_empty():
            # ∅ ⊆ anything; no inclusion search, no memo entry needed.
            obs.increment_metric("cache.empty_shortcircuit")
            return True
        if b.is_empty():
            # a is non-empty here, so a ⊆ ∅ is immediately false.
            obs.increment_metric("cache.empty_shortcircuit")
            return False
        key_a, key_b = self.struct_key(a), self.struct_key(b)
        if key_a == key_b:
            self._hit("is_subset")
            return True
        key = ("subset", key_a, key_b)
        stored = self._get(key)
        if stored is not None:
            self._hit("is_subset")
            return stored == "y"
        self._miss("is_subset")
        result = counterexample(a, b) is None
        # Strings, not bools: `_get` treats the stored value None-ness
        # as presence, so encode the verdict in a always-truthy token.
        self._put(key, "y" if result else "n")
        return result


# -- the contextvar scope ----------------------------------------------------

_active: ContextVar[Optional[LangCache]] = ContextVar(
    "dprle_lang_cache", default=None
)


def active_cache() -> Optional[LangCache]:
    """The cache installed for the current dynamic extent, if any."""
    return _active.get()
