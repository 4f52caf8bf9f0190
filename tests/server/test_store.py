"""Unit tests for the persistent memo store (repro.cache.store).

The store's contract (docs/SERVER.md): durable across process
restarts, safe under concurrent writers sharing one database file, and
*never* the reason a solve fails — corrupt or truncated files open as
empty, a foreign schema header wipes to empty, and non-persistable
entry classes (the identity-sensitive ``elim_eps`` memos, per-object
``dfa`` memos) never touch disk.
"""

import threading

import pytest

from repro import obs
from repro.automata import ops
from repro.automata.equivalence import equivalent, is_subset
from repro.cache import CacheLimits, LangCache
from repro.cache.store import PERSISTED_OPS, SCHEMA, SignatureStore, persistable

from ..helpers import ABC, language, machine


@pytest.fixture
def db(tmp_path):
    return tmp_path / "sig.db"


class TestRoundTrip:
    def test_string_entries_survive_reopen(self, db):
        with SignatureStore(db) as store:
            store.save(("subset", "struct:abc"), "deadbeef")
            store.save(("subset", "a", "b"), "y")
        with SignatureStore(db) as store:
            assert store.load(("subset", "struct:abc")) == "deadbeef"
            assert store.load(("subset", "a", "b")) == "y"

    def test_machine_entries_survive_reopen(self, db):
        original = machine("a(b|c)*", ABC)
        with SignatureStore(db) as store:
            store.save(("intersect", "somekey"), original)
        with SignatureStore(db) as store:
            loaded = store.load(("intersect", "somekey"))
        assert loaded is not original
        assert language(loaded) == language(original)

    def test_pending_writes_committed_on_close(self, db):
        # commit_every far above the write count: only close()/flush()
        # can have persisted these.
        store = SignatureStore(db, commit_every=10_000)
        for index in range(5):
            store.save(("subset", f"s{index}"), f"v{index}")
        store.close()
        with SignatureStore(db) as reopened:
            assert reopened.entry_count() == 5

    def test_replace_updates_in_place(self, db):
        with SignatureStore(db) as store:
            store.save(("subset", "k"), "old")
            store.save(("subset", "k"), "new")
            assert store.load(("subset", "k")) == "new"
            assert store.entry_count() == 1

    def test_miss_returns_none_and_counts(self, db):
        with SignatureStore(db) as store:
            assert store.load(("subset", "absent")) is None
            assert store.misses == 1
            assert store.hits == 0


class TestPersistableGate:
    def test_identity_sensitive_classes_never_persist(self, db):
        # elim_eps results carry bridge-tag identity the GCI reads;
        # dfa memos are per-object.  Neither may cross a process hop.
        assert "elim_eps" not in PERSISTED_OPS
        assert "dfa" not in PERSISTED_OPS
        assert not persistable(("elim_eps", "struct:x"))
        assert not persistable(("dfa", "sig:x"))
        with SignatureStore(db) as store:
            store.save(("elim_eps", "struct:x"), machine("a", ABC))
            store.save(("dfa", "sig:x"), machine("a", ABC))
            assert store.entry_count() == 0
            assert store.load(("elim_eps", "struct:x")) is None

    def test_every_persisted_op_has_a_kind(self):
        assert set(PERSISTED_OPS.values()) <= {"str", "nfa"}


class TestConcurrentWriters:
    def test_two_stores_share_one_db(self, db):
        # Replica sharing: two open stores (same file) interleaving
        # writes and reads, as two daemon replicas would.
        with SignatureStore(db) as left, SignatureStore(db) as right:
            left.save(("subset", "from-left"), "L")
            left.flush()
            assert right.load(("subset", "from-left")) == "L"
            right.save(("subset", "from-right"), "R")
            right.flush()
            assert left.load(("subset", "from-right")) == "R"
        with SignatureStore(db) as reopened:
            assert reopened.entry_count() == 2

    def test_threaded_writers_on_one_store(self, db):
        store = SignatureStore(db, commit_every=8)
        errors: list[BaseException] = []

        def write_range(tag: str) -> None:
            try:
                for index in range(50):
                    store.save(("subset", f"{tag}:{index}"), tag)
                    store.load(("subset", f"{tag}:{index}"))
            except BaseException as error:  # pragma: no cover - fail below
                errors.append(error)

        threads = [
            threading.Thread(target=write_range, args=(f"t{n}",))
            for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        store.close()
        with SignatureStore(db) as reopened:
            assert reopened.entry_count() == 200


class TestCorruptionTolerance:
    def test_garbage_file_opens_empty(self, db):
        db.write_bytes(b"this is not a sqlite database, not even close" * 64)
        with SignatureStore(db) as store:
            assert store.entry_count() == 0
            assert store.recoveries == 1
            store.save(("subset", "k"), "v")
            assert store.load(("subset", "k")) == "v"

    def test_truncated_db_opens_empty(self, db):
        with SignatureStore(db) as store:
            for index in range(32):
                store.save(("subset", f"s{index}"), "x" * 512)
        db.write_bytes(db.read_bytes()[:100])
        with SignatureStore(db) as store:
            assert store.entry_count() == 0
            store.save(("subset", "fresh"), "v")
        with SignatureStore(db) as store:
            assert store.load(("subset", "fresh")) == "v"

    def test_recovery_emits_counter(self, db, tmp_path):
        db.write_bytes(b"garbage" * 100)
        with obs.collect() as collector:
            SignatureStore(db).close()
        counters = collector.metrics.snapshot()["counters"]
        assert counters.get("cache.store.corrupt_recovered") == 1

    def test_foreign_schema_header_wipes_entries(self, db):
        with SignatureStore(db) as store:
            store.save(("subset", "stale"), "v")
        import sqlite3

        conn = sqlite3.connect(str(db))
        with conn:
            conn.execute(
                "UPDATE meta SET value = 'dprle.store/0' WHERE key = 'schema'"
            )
        conn.close()
        with SignatureStore(db) as store:
            # Digest semantics are part of the version contract: stale
            # entries under a foreign header are wrong, not merely cold.
            assert store.entry_count() == 0
            assert store.stats()["schema"] == SCHEMA


class TestLangCacheIntegration:
    def test_write_through_and_fallback(self, db):
        store = SignatureStore(db)
        warm = LangCache(CacheLimits(), store=store)
        with warm.activate():
            verdict = is_subset(machine("ab", ABC), machine("a(b|c)*", ABC))
        assert store.writes > 0
        store.flush()

        # A brand-new cache on the same store: LRU misses fall back.
        cold = LangCache(CacheLimits(), store=store)
        with cold.activate():
            assert (
                is_subset(machine("ab", ABC), machine("a(b|c)*", ABC)) == verdict
            )
        assert store.hits > 0
        assert cold.misses == {}
        store.close()

    def test_store_appears_in_cache_stats(self, db):
        with SignatureStore(db) as store:
            cache = LangCache(CacheLimits(), store=store)
            summary = cache.stats()
            assert summary["store"]["schema"] == SCHEMA

    def test_loaded_machines_are_language_equal(self, db):
        store = SignatureStore(db)
        warm = LangCache(CacheLimits(), store=store)
        with warm.activate():
            product = ops.intersect(machine("(ab)*c", ABC), machine("a*", ABC))
        store.flush()
        cold = LangCache(CacheLimits(), store=store)
        with cold.activate():
            reloaded = ops.intersect(machine("(ab)*c", ABC), machine("a*", ABC))
        assert cold.hits.get("intersect", 0) == 1
        assert equivalent(product, reloaded)
        store.close()
