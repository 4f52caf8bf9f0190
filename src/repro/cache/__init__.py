"""Language-level memoization keyed by canonical signatures.

The paper's cost model counts NFA state visits (Sec. 3.5), and the
solver's hot paths — CI-group enumeration, solution dedupe/subsumption,
Galois maximization — keep redoing language-level work on machines
whose languages were computed moments earlier.  This module provides a
*solver-scoped* memoization layer over those operations, in the spirit
of the aggressive canonical-form memoization that makes derivative-
style procedures tractable.

Two-tier keying:

* **Structural digest** (:meth:`LangCache.struct_key`) — a cheap
  ``O(edges)`` canonical serialization of an NFA as-is (states densely
  renumbered, edges sorted, charset labels serialized by their interval
  ranges, bridge tags ignored).  Structurally identical machines — the
  common case for the per-combination slices the GCI enumeration mints
  — share it without any automata construction.
* **Language signature** (:meth:`LangCache.signature`) — the structural
  digest of the machine's Hopcroft-minimized DFA, renumbered by BFS
  order from the start state with successors visited in canonical
  label order.  The minimal complete DFA is unique up to isomorphism
  and the BFS renumbering picks a canonical representative, so **two
  machines have equal signatures iff their languages are equal**.
  Signatures embed the alphabet universe, so results can never be
  confused across alphabets.

What is memoized is exactly what the workloads hit: signatures (with
the minimal machine each one yields, so :meth:`LangCache.minimize` on
any language-equal machine is a lookup), provenance-free
:meth:`LangCache.intersect` under the signature pair, and
:meth:`LangCache.is_subset` verdicts (``equivalent`` is two of them).
Signature computation itself is memoized per object and per structural
digest, so repeated slices pay it once.  The exception to language
keying is :meth:`LangCache.eliminate_epsilon`, which is memoized under
the *structural* key only: the GCI procedure reads bridge-crossing
structure off products of its output, so substituting a language-equal
but structurally different machine could change which candidate
combinations get enumerated.  Structural keying is exactly
behavior-preserving.  Every other kernel — ``determinize``,
``complement``, the quotients — has one uncached path: keying it would
force a signature (a subset construction plus Hopcroft) on every new
operand just to build the key.

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
* Cached results are language-faithful but not *structure*- or
  *tag*-faithful: a hit may return a language-equal machine with
  different states, start/final sets, or bridge tags.  The
  structure-sensitive GCI paths therefore never go through the
  signature-keyed cache: :func:`~repro.automata.ops.product` (with or
  without provenance) and the stage-1/stage-2 machine construction in
  ``gci._prepare_group`` call the uncached product directly, because
  the bridge images enumerated in stage 4 are read off those machines'
  start/final structure.  Signature-keyed ``intersect`` is reserved for
  purely language-level uses (share intersection in
  ``_share_intersection``, maximization caps).
* ``is_subset`` only uses the signature fast path when both operands'
  signatures are already known; otherwise the lazy
  on-the-fly inclusion check runs (no forced determinization — which
  could blow up on NFAs the lazy check handles easily) and its verdict
  is memoized under structural keys.
* Mutating a machine *after* the cache has fingerprinted it is detected
  by a cheap staleness stamp (state/transition counts plus start/final
  sets); in-place edits that preserve all of those would evade it, but
  no public ``Nfa`` API can do that.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional
from weakref import ref as weakref_ref

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..automata.dfa import Dfa
    from ..automata.nfa import Nfa
    from .store import SignatureStore

__all__ = ["CacheLimits", "LangCache", "active_cache"]


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
    """Per-object fingerprint record: lazily computed digests for one
    ``Nfa`` instance, guarded against mutation by ``stamp``."""

    __slots__ = ("ref", "stamp", "struct", "sig")

    def __init__(self, nfa: "Nfa", stamp: tuple):
        self.ref = weakref_ref(nfa)
        self.stamp = stamp
        self.struct: Optional[str] = None
        self.sig: Optional[str] = None


def _stamp(nfa: "Nfa") -> tuple:
    """A cheap mutation detector for the per-object record."""
    return (
        nfa.num_states,
        nfa.num_transitions,
        hash(frozenset(nfa.starts)),
        hash(frozenset(nfa.finals)),
    )


def _struct_digest(nfa: "Nfa") -> str:
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


def _lang_digest(mdfa: "Dfa") -> str:
    """Canonical digest of a minimal complete DFA.

    BFS from the start state, visiting successors in ascending label
    order, assigns the canonical numbering; the digest then serializes
    finals membership and the renumbered transition function.  Minimal
    complete DFAs are unique up to isomorphism and every state is
    reachable, so this digest is a *canonical form* of the language:
    equal digests ⟺ equal languages.
    """
    order: dict[int, int] = {mdfa.start: 0}
    queue = deque([mdfa.start])
    canonical_moves: dict[int, list[tuple[tuple, int]]] = {}
    while queue:
        state = queue.popleft()
        moves = sorted(mdfa.transitions[state], key=lambda mv: mv[0].ranges)
        for _, dst in moves:
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
        canonical_moves[state] = [(label.ranges, dst) for label, dst in moves]
    hasher = hashlib.sha256()
    hasher.update(repr(mdfa.alphabet.universe.ranges).encode())
    for state in sorted(order, key=order.get):
        hasher.update(
            repr(
                (
                    order[state],
                    state in mdfa.finals,
                    [(rng, order[dst]) for rng, dst in canonical_moves[state]],
                )
            ).encode()
        )
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
        self.signature_collisions = 0

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
            "signature_collisions": self.signature_collisions,
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
            rec.struct = _struct_digest(nfa)
        return rec.struct

    def signature(self, nfa: "Nfa") -> str:
        """The canonical language signature of ``nfa``.

        Memoized per object *and* per structural digest, so the
        determinize+minimize it costs is paid once per distinct
        structure, not once per object.
        """
        sig, _ = self._signature(nfa)
        return sig

    def _signature(self, nfa: "Nfa") -> tuple[str, bool]:
        """Returns ``(signature, computed_fresh)``."""
        rec = self._rec(nfa)
        if rec.sig is not None:
            return rec.sig, False
        struct = self.struct_key(nfa)
        known = self._get(("sig", struct))
        if known is not None:
            rec.sig = known
            return known, False
        from ..automata.dfa import determinize, minimize_dfa

        obs.count_operation("signature")
        with obs.span("signature", states_in=nfa.num_states) as sp:
            mdfa = minimize_dfa(determinize(nfa))
            sig = _lang_digest(mdfa)
            sp.set("states_out", mdfa.num_states)
        rec.sig = sig
        self._put(("sig", struct), sig)
        if self._get(("min", sig)) is None:
            # The minimal machine is a free by-product of the signature;
            # stash it so minimize() on any equivalent machine hits.
            self._put(("min", sig), mdfa.to_nfa().trim())
        else:
            # A structurally distinct machine denoted an already-known
            # language: the dedupe/memoization win the signature layer
            # exists for.  (Digest collisions of *different* languages
            # are not detectable here; this gauge counts convergence.)
            self.signature_collisions += 1
            obs.increment_metric("cache.signature_collisions")
            obs.set_gauge(
                "cache.signature_collisions", self.signature_collisions
            )
        return sig, True

    def _sig_if_known(self, nfa: "Nfa") -> Optional[str]:
        """The signature if one is already on record (per object or per
        structural digest) — never forces a determinization."""
        rec = self._rec(nfa)
        if rec.sig is None:
            known = self._get(("sig", self.struct_key(nfa)))
            if known is not None:
                rec.sig = known
        return rec.sig

    # -- memoized operations -------------------------------------------

    def minimize(self, nfa: "Nfa") -> "Nfa":
        """Memoized canonical minimization, keyed by language signature."""
        sig, fresh = self._signature(nfa)
        stored = self._get(("min", sig))
        if stored is not None and not fresh:
            self._hit("minimize")
        else:
            self._miss("minimize")
        if stored is None:  # evicted between signature and lookup
            from ..automata.dfa import _minimize_nfa_instrumented

            stored = _minimize_nfa_instrumented(nfa)
            self._put(("min", sig), stored)
        return stored.copy()

    def eliminate_epsilon(self, nfa: "Nfa") -> "Nfa":
        """Memoized ε-elimination, keyed *structurally* (see module docs)."""
        from ..automata.ops import _eliminate_epsilon_instrumented

        key = ("elim_eps", self.struct_key(nfa))
        stored = self._get(key)
        if stored is not None:
            self._hit("eliminate_epsilon")
            return stored.copy()
        self._miss("eliminate_epsilon")
        result = _eliminate_epsilon_instrumented(nfa)
        self._put(key, result.copy())
        return result

    def intersect(self, a: "Nfa", b: "Nfa") -> "Nfa":
        """Memoized provenance-free intersection (commutative key)."""
        from ..automata.ops import product

        if a.alphabet != b.alphabet:
            raise ValueError("cannot intersect machines over different alphabets")
        sig_a = self.signature(a)
        sig_b = self.signature(b)
        key = ("intersect",) + tuple(sorted((sig_a, sig_b)))
        stored = self._get(key)
        if stored is not None:
            self._hit("intersect")
            return stored.copy()
        self._miss("intersect")
        result, _ = product(a, b)
        self._put(key, result.copy())
        return result

    def is_subset(self, a: "Nfa", b: "Nfa") -> bool:
        """Memoized inclusion.

        Signatures are used only when both are *already* known (equal
        signatures short-circuit to True; other verdicts are remembered
        per signature pair) — computing one costs a subset construction
        plus Hopcroft minimization, which on blowup-prone NFAs is far
        worse than the lazy on-the-fly check with early counterexample
        exit.  When either signature is missing, the lazy check runs
        and its verdict is memoized under the structural key pair.
        """
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
        sig_a = self._sig_if_known(a)
        sig_b = self._sig_if_known(b)
        if sig_a is not None and sig_b is not None:
            if sig_a == sig_b:
                self._hit("is_subset")
                return True
            key = ("subset", "lang", sig_a, sig_b)
        else:
            key = ("subset", "struct", self.struct_key(a), self.struct_key(b))
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
