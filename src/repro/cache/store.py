"""Persistent memo store: the on-disk tier of the language cache.

:class:`~repro.cache.LangCache` memoizes language-level automata work
under content-addressed keys — the tag-blind structural digests of the
operands (:meth:`~repro.cache.LangCache.struct_key`).  Those digests
are stable across processes and machines (they encode only the
automaton and its alphabet), which makes the memoization table itself
durable data: a server replica that has never seen a query can still
answer it from another replica's work, and a restarted daemon does not
re-pay the products, minimizations and inclusion checks it had already
done.

This module is that durable tier: a sqlite-backed map from cache keys
to serialized machines and memoized verdicts, attached to a
:class:`~repro.cache.LangCache` as a write-through backing store.  The
in-memory LRU table stays the fast path; on an LRU miss the store is
consulted, and every insert of a persistable entry is mirrored to disk.
The class keeps its historical name, ``SignatureStore``, and the
daemon's ``--cache-db`` flag opens it.

What is persisted (see ``PERSISTED_OPS``):

* ``min`` / ``intersect`` — memoized machines, serialized with the
  id-preserving :func:`~repro.automata.serialize.to_dict` encoding.
* ``subset`` — memoized inclusion verdicts (``"y"`` / ``"n"`` tokens,
  as in the in-memory table).

What is deliberately **not** persisted:

* ``elim_eps`` — ε-elimination results feed the GCI stage-1/stage-2
  machines, whose bridge structure (including bridge-tag identity) the
  enumeration reads; a machine decoded from disk carries freshly minted
  tag objects, so substituting it would be exactly the
  identity-sensitivity bug class ``L002`` exists to catch.

Format and versioning: one sqlite database with a ``meta`` table whose
``schema`` row carries the version header (``dprle.store/2``) and an
``entries`` table keyed by the JSON-encoded cache key.  Opening a store
whose header names a different version wipes and re-initializes it
(key semantics are part of the version contract: ``dprle.store/1``
keyed ``min``, ``intersect`` and some ``subset`` entries by language
signatures, and held ``sig`` rows).  Opening a truncated or
otherwise corrupt file — sqlite raising ``DatabaseError`` at connect
or first query — recovers by moving the wreck aside and starting
empty, never by failing the solve (``cache.store.corrupt_recovered``
counts recoveries).

Concurrency: WAL journaling (with silent fallback where WAL is
unavailable) plus a busy timeout lets several stores — threads or
replica processes — share one database file; writes are batched and
committed every ``commit_every`` inserts and on :meth:`flush`/
:meth:`close`, which the server's graceful shutdown invokes.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import Optional, Union

from .. import obs
from ..automata.nfa import Nfa
from ..automata.serialize import from_dict, to_dict

__all__ = ["SCHEMA", "PERSISTED_OPS", "SignatureStore", "StoreValue"]

#: Version header: bump when key semantics or the entry encoding
#: change; stores with a different header are wiped on open.
SCHEMA = "dprle.store/2"

#: A persisted value: a verdict string or a memoized machine.
StoreValue = Union[str, Nfa]

#: Cache-key prefix → value kind ("str" or "nfa") for every entry class
#: the store accepts.  Keys outside this table never touch disk.
PERSISTED_OPS: dict[str, str] = {
    "subset": "str",
    "min": "nfa",
    "intersect": "nfa",
}


def persistable(key: tuple[str, ...]) -> bool:
    """True iff the cache key belongs to a persisted entry class."""
    return bool(key) and key[0] in PERSISTED_OPS


def _encode_key(key: tuple[str, ...]) -> str:
    return json.dumps(list(key), separators=(",", ":"))


class SignatureStore:
    """A sqlite-backed, write-through map from cache keys to entries.

    One instance owns one connection (thread-safe behind an internal
    lock, so a daemon's batch thread and its stats endpoint may share
    it); several instances — including instances in different processes
    — may open the same path concurrently.
    """

    def __init__(self, path: Union[str, Path], *, commit_every: int = 64):
        if commit_every < 1:
            raise ValueError("commit_every must be >= 1")
        self.path = Path(path)
        self.commit_every = commit_every
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.recoveries = 0
        self._pending = 0
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open()

    # -- lifecycle -----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=5.0, check_same_thread=False
        )
        conn.execute("PRAGMA busy_timeout=5000")
        try:
            conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:  # pragma: no cover - filesystem quirk
            pass  # WAL is an optimization; rollback journaling also works
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        with conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries "
                "(key TEXT PRIMARY KEY, kind TEXT NOT NULL, value TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
                (SCHEMA,),
            )

    def _open(self) -> None:
        try:
            conn = self._connect()
            self._init_schema(conn)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
        except sqlite3.DatabaseError:
            self._recover_from_corruption()
            return
        if row is None or row[0] != SCHEMA:
            # A future (or foreign) version: key semantics are part
            # of the version contract, so stale entries are wrong, not
            # merely cold.  Start empty under our own header.
            with conn:
                conn.execute("DELETE FROM entries")
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('schema', ?)",
                    (SCHEMA,),
                )
        self._conn = conn
        obs.set_gauge("cache.store.entries", self.entry_count())

    def _recover_from_corruption(self) -> None:
        """Replace an unreadable database with a fresh empty one."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - best-effort close
                pass
            self._conn = None
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass
        conn = self._connect()
        self._init_schema(conn)
        self._conn = conn
        self._pending = 0
        self.recoveries += 1
        obs.increment_metric("cache.store.corrupt_recovered")
        obs.set_gauge("cache.store.entries", 0)

    def flush(self) -> None:
        """Commit any batched writes (the graceful-shutdown hook)."""
        with self._lock:
            if self._conn is not None and self._pending:
                self._conn.commit()
                self._pending = 0
            if self._conn is not None:
                obs.set_gauge("cache.store.entries", self.entry_count())

    def close(self) -> None:
        with self._lock:
            if self._conn is None:
                return
            self.flush()
            self._conn.close()
            self._conn = None

    # -- the map -------------------------------------------------------

    def load(self, key: tuple[str, ...]) -> Optional[StoreValue]:
        """The stored value for ``key``, or None.

        Machines come back through the id-preserving
        :func:`~repro.automata.serialize.from_dict` decode with freshly
        minted tags — callers must treat them as language-level values
        only (which is the contract of every persisted entry class).
        """
        if not persistable(key):
            return None
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT kind, value FROM entries WHERE key = ?",
                    (_encode_key(key),),
                ).fetchone()
            except sqlite3.DatabaseError:
                self._recover_from_corruption()
                row = None
        if row is None:
            self.misses += 1
            obs.increment_metric("cache.store.misses")
            return None
        kind, text = row
        self.hits += 1
        obs.increment_metric("cache.store.hits")
        if kind == "nfa":
            return from_dict(json.loads(text))
        return str(text)

    def save(self, key: tuple[str, ...], value: StoreValue) -> None:
        """Write one entry through to disk (INSERT OR REPLACE)."""
        if not persistable(key):
            return
        kind = PERSISTED_OPS[key[0]]
        if isinstance(value, Nfa):
            text = json.dumps(to_dict(value), separators=(",", ":"))
        else:
            text = value
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO entries (key, kind, value) "
                    "VALUES (?, ?, ?)",
                    (_encode_key(key), kind, text),
                )
            except sqlite3.DatabaseError:
                self._recover_from_corruption()
                return
            self._pending += 1
            if self._pending >= self.commit_every:
                self._conn.commit()
                self._pending = 0
        self.writes += 1
        obs.increment_metric("cache.store.writes")

    def entry_count(self) -> int:
        with self._lock:
            if self._conn is None:
                return 0
            try:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
            except sqlite3.DatabaseError:
                self._recover_from_corruption()
                return 0
        return int(row[0]) if row is not None else 0

    def stats(self) -> dict[str, Union[int, str, bool]]:
        """A JSON-ready summary of the store's activity."""
        return {
            "path": str(self.path),
            "schema": SCHEMA,
            "entries": self.entry_count(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "recoveries": self.recoveries,
        }

    def __enter__(self) -> "SignatureStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
