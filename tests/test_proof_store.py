"""Tests for the SQLite proof store.

Covers the lazy store (roundtrip, faulting, prefetch, path resolution,
in-database eviction, WAL mode, schema and corruption tolerance, use
from a thread other than the one that opened it), fault injection
mid-run (corruption, a locked database, a full disk — all must degrade
to the in-memory tier with identical verdicts and an exact hit/miss
ledger), and the warm-run laziness criterion.
"""

import sqlite3
import threading
from dataclasses import replace

import pytest

from repro.bench import small_test_corpus
from repro.ir import clone_function, parse_function
from repro.transforms import PAPER_PIPELINE
from repro.validator import (
    SQLITE_FILE_NAME,
    SQLITE_SCHEMA,
    DEFAULT_CONFIG,
    ValidationCache,
    llvm_md,
    validate,
    validate_module_batch,
)


@pytest.fixture
def pair(loop_source):
    before = parse_function(loop_source)
    return before, clone_function(before)


def _filled_cache(tmp_path, entries=6):
    cache = ValidationCache(tmp_path)
    keys = []
    for index in range(entries):
        before = parse_function(
            f"define i32 @f{index}(i32 %a) {{\n"
            f"entry:\n  %t = add i32 %a, {index}\n  ret i32 %t\n}}"
        )
        after = clone_function(before)
        key = cache.key(before, after, DEFAULT_CONFIG)
        cache.put(key, validate(before, after, DEFAULT_CONFIG))
        keys.append(key)
    return cache, keys


class TestSqliteRoundtrip:
    def test_save_and_lazy_reload(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path)
        assert cache.backend == "sqlite"
        key = cache.key(before, after, DEFAULT_CONFIG)
        result = validate(before, after, DEFAULT_CONFIG)
        cache.put(key, result)
        assert cache.save() == 1
        cache.close()
        assert (tmp_path / SQLITE_FILE_NAME).exists()

        reloaded = ValidationCache(tmp_path)
        # Lazy: the store advertises its entry count without decoding
        # anything — nothing is in memory until a peek faults it in.
        assert reloaded.loaded == 1
        assert len(reloaded) == 0
        assert reloaded.stats()["store_lazy_loads"] == 0
        stored = reloaded.peek(key)
        assert stored is not None
        assert stored.is_success == result.is_success
        assert stored.reason == result.reason
        assert stored.stats == result.stats
        assert stored.graph_nodes == result.graph_nodes
        counters = reloaded.stats()
        assert counters["store_lazy_loads"] == 1
        assert counters["store_bytes_read"] > 0
        # Once faulted the entry lives in memory: no second disk read.
        assert reloaded.peek(key) is stored or reloaded.peek(key) is not None
        assert reloaded.stats()["store_lazy_loads"] == 1

    def test_incremental_flush_interval(self, tmp_path):
        from repro.validator import cache as cache_module

        cache, keys = _filled_cache(tmp_path, entries=5)
        assert cache.stats()["store_flushes"] == 0  # under the interval
        # Shrink the interval: the next put crosses it and flushes.
        original = cache_module._SQLITE_FLUSH_INTERVAL
        try:
            cache_module._SQLITE_FLUSH_INTERVAL = 3
            before = parse_function(
                "define i32 @extra(i32 %a) {\nentry:\n"
                "  %t = mul i32 %a, 3\n  ret i32 %t\n}")
            after = clone_function(before)
            cache.put(cache.key(before, after, DEFAULT_CONFIG),
                      validate(before, after, DEFAULT_CONFIG))
        finally:
            cache_module._SQLITE_FLUSH_INTERVAL = original
        assert cache.stats()["store_flushes"] == 1
        assert cache.stats()["store_bytes_written"] > 0
        # Entries flushed incrementally are durable even without save().
        cache.close()
        assert ValidationCache(tmp_path).loaded == 6

    def test_prefetch_faults_like_peek(self, tmp_path):
        # prefetch faults in exactly the entries per-key peeks would, and
        # skips keys already in memory.
        cache, keys = _filled_cache(tmp_path, entries=5)
        cache.save()
        cache.close()
        reader = ValidationCache(tmp_path)
        absent = reader.key_for("nowhere", "nothing", DEFAULT_CONFIG, "")
        assert reader.prefetch(keys[:4] + [absent, keys[0]]) == 4
        assert reader.stats()["store_lazy_loads"] == 4
        assert reader.prefetch(keys) == 1
        assert reader.stats()["store_lazy_loads"] == 5
        assert ValidationCache().prefetch(keys) == 0

    def test_explicit_sqlite_path(self, tmp_path, pair):
        before, after = pair
        target = tmp_path / "custom.sqlite"
        cache = ValidationCache(target)
        assert cache.backend == "sqlite"
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        assert target.exists()
        assert ValidationCache(target).loaded == 1

    def test_wal_mode_active(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path)
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        finally:
            conn.close()

    def test_two_writers_share_one_store(self, tmp_path, pair, diamond_source):
        # WAL + busy timeout: two caches upsert into one database and
        # neither clobbers the other's entries.
        before, after = pair
        other_before = parse_function(diamond_source)
        other_after = clone_function(other_before)
        writer_a = ValidationCache(tmp_path)
        writer_b = ValidationCache(tmp_path)
        writer_a.put(writer_a.key(before, after, DEFAULT_CONFIG),
                     validate(before, after, DEFAULT_CONFIG))
        writer_b.put(writer_b.key(other_before, other_after, DEFAULT_CONFIG),
                     validate(other_before, other_after, DEFAULT_CONFIG))
        writer_a.save()
        assert writer_b.save() == 2  # sees writer_a's entry in the count
        writer_a.close()
        writer_b.close()
        assert ValidationCache(tmp_path).loaded == 2


class TestBackendSelection:
    def test_fresh_directory_opens_sqlite(self, tmp_path):
        cache = ValidationCache(tmp_path)
        assert cache.backend == "sqlite"
        assert cache.path == tmp_path / SQLITE_FILE_NAME

    def test_auto_prefers_existing_sqlite(self, tmp_path, pair):
        # A leftover validation_cache.json from an older checkout is
        # ignored, never read or rewritten; the SQLite store answers.
        before, after = pair
        leftover = tmp_path / "validation_cache.json"
        leftover.write_text('{"schema": 1, "entries": {}}\n')
        seeded = ValidationCache(tmp_path)
        seeded.put(seeded.key(before, after, DEFAULT_CONFIG),
                   validate(before, after, DEFAULT_CONFIG))
        seeded.save()
        seeded.close()
        reopened = ValidationCache(tmp_path)
        assert reopened.backend == "sqlite"
        assert reopened.loaded == 1
        assert leftover.read_text() == '{"schema": 1, "entries": {}}\n'

    def test_config_backend_reaches_driver_cache(self, tmp_path):
        module = small_test_corpus(functions=4, seed=3)
        config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path))
        llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        assert [path.name for path in tmp_path.iterdir()
                if not path.name.endswith(("-wal", "-shm"))] == [SQLITE_FILE_NAME]


class TestCrossThreadUse:
    def test_cache_opened_on_one_thread_saves_from_another(self, tmp_path,
                                                           pair):
        # The daemon builds its cache on the main thread and validates on
        # a worker thread; the store must follow the cache across.
        before, after = pair
        target = tmp_path / "store.sqlite"
        cache = ValidationCache(target)
        errors = []

        def work():
            try:
                cache.put(cache.key(before, after, DEFAULT_CONFIG),
                          validate(before, after, DEFAULT_CONFIG))
                cache.save()
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not errors
        stats = cache.stats()
        assert stats["store_errors"] == 0
        assert stats["disk_stored"] > 0
        cache.close()
        assert ValidationCache(target).loaded == 1


class TestSqliteEviction:
    def test_budget_evicts_inside_the_database(self, tmp_path):
        cache, keys = _filled_cache(tmp_path)
        cache.max_bytes = 1024
        stored = cache.save()
        assert cache.evicted > 0
        assert stored == len(keys) - cache.evicted
        assert cache.stats()["disk_evicted"] == cache.evicted
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        try:
            count, total = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM entries").fetchone()
        finally:
            conn.close()
        assert count == stored
        assert total <= 1024

    def test_least_recently_hit_evicted_first(self, tmp_path):
        cache, keys = _filled_cache(tmp_path)
        # Touch the first key last: it becomes the most recently hit.
        assert cache.get(keys[0], "f0") is not None
        cache.max_bytes = 1500  # room for ~2 of the ~640-byte entries
        cache.save()
        assert cache.evicted > 0
        cache.close()
        survivor = ValidationCache(tmp_path)
        assert survivor.peek(keys[0]) is not None, "hot entry must survive"

    def test_recency_stamps_continue_across_processes(self, tmp_path):
        cache, keys = _filled_cache(tmp_path)
        cache.save()
        cache.close()
        # A later process stores one fresh entry; its recency outranks
        # every earlier run's, so under pressure the old entries lose.
        reloaded = ValidationCache(tmp_path)
        before = parse_function(
            "define i32 @fresh(i32 %a) {\nentry:\n  %t = mul i32 %a, 7\n  ret i32 %t\n}")
        after = clone_function(before)
        fresh_key = reloaded.key(before, after, DEFAULT_CONFIG)
        reloaded.put(fresh_key, validate(before, after, DEFAULT_CONFIG))
        reloaded.max_bytes = 1500
        reloaded.save()
        assert reloaded.evicted > 0
        reloaded.close()
        assert ValidationCache(tmp_path).peek(fresh_key) is not None


class TestSqliteTolerance:
    def test_corrupted_file_discarded_and_recreated(self, tmp_path, pair):
        before, after = pair
        target = tmp_path / SQLITE_FILE_NAME
        target.write_bytes(b"this is not a sqlite database at all")
        cache = ValidationCache(tmp_path)
        assert cache.loaded == 0
        # The broken file was replaced by a working cold store.
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        assert cache.save() == 1
        assert cache.stats()["store_errors"] == 0
        cache.close()
        assert ValidationCache(tmp_path).loaded == 1

    def test_schema_mismatch_starts_cold(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path)
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        conn.execute("PRAGMA user_version = %d" % (SQLITE_SCHEMA + 999))
        conn.commit()
        conn.close()
        reopened = ValidationCache(tmp_path)
        assert reopened.loaded == 0  # table dropped, store recreated cold
        reopened.close()

    def test_malformed_entry_skipped_without_poisoning_neighbours(
            self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path)
        key = cache.key(before, after, DEFAULT_CONFIG)
        cache.put(key, validate(before, after, DEFAULT_CONFIG))
        cache.save()
        cache.close()
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        conn.execute(
            "INSERT INTO entries (key, payload, size, last_hit)"
            " VALUES ('garbage-key', 'not json', 8, 0)")
        conn.commit()
        conn.close()
        reopened = ValidationCache(tmp_path)
        assert reopened.peek(key) is not None
        # The malformed row reads as a miss, not a store fault.
        assert reopened.stats()["store_errors"] == 0
        reopened.close()


class _FaultyConnection:
    """Stands in for a sqlite3 connection whose every operation fails."""

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def execute(self, *args, **kwargs):
        raise self.error

    def executemany(self, *args, **kwargs):
        raise self.error

    def commit(self):
        raise self.error

    def close(self):
        pass


class TestSqliteFaultInjection:
    """Mid-run store faults degrade to the in-memory tier losslessly:
    verdicts stay identical and the hit/miss ledger is unchanged —
    mirroring the executor pool-death tests in test_stepwise.py."""

    FAULTS = [
        pytest.param(sqlite3.DatabaseError("database disk image is malformed"),
                     id="corruption"),
        pytest.param(sqlite3.OperationalError("database is locked"),
                     id="locked-timeout"),
        pytest.param(sqlite3.OperationalError("database or disk is full"),
                     id="disk-full"),
    ]

    @pytest.mark.parametrize("error", FAULTS)
    def test_mid_run_fault_degrades_to_memory_tier(self, tmp_path, error):
        module = small_test_corpus(functions=5, seed=11)
        clean_cache = ValidationCache()
        (_, clean), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=clean_cache, strategy="stepwise")
        broken_cache = ValidationCache(tmp_path)
        # Swap the live connection for one that fails every statement:
        # the first store operation of the run discovers the fault.
        broken_cache._store.close()
        broken_cache._store._conn = _FaultyConnection(error)
        (_, report), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=broken_cache, strategy="stepwise")
        assert [r.signature() for r in clean.records] == \
               [r.signature() for r in report.records]
        counters = broken_cache.stats()
        assert counters["store_errors"] >= 1
        # Exact ledger: the broken store behaves like the in-memory tier.
        assert broken_cache.hits == clean_cache.hits
        assert broken_cache.misses == clean_cache.misses
        assert len(broken_cache) == len(clean_cache)
        # The degradation is permanent but harmless: saving is a no-op
        # that neither raises nor resurrects the connection.
        assert broken_cache.save() == 0
        assert broken_cache.stats()["store_errors"] == counters["store_errors"]

    @pytest.mark.parametrize("error", FAULTS)
    def test_faulted_store_still_answers_warm_queries_from_memory(
            self, tmp_path, error):
        module = small_test_corpus(functions=5, seed=11)
        cache = ValidationCache(tmp_path)
        cache._store.close()
        cache._store._conn = _FaultyConnection(error)
        (_, cold), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=cache, strategy="stepwise")
        assert cache.misses > 0
        # Same cache object, second sweep: the in-memory tier answers
        # everything even though the disk store is gone.
        (_, warm), = validate_module_batch(
            [module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
            cache=cache, strategy="stepwise")
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in warm.records]
        assert all(r.from_cache for r in warm.records if r.transformed)


class TestWarmRunLaziness:
    def test_warm_sqlite_run_faults_fewer_entries_than_stored(self, tmp_path):
        # The batch driver's cold chain items store whole-key verdicts
        # for accepted multi-step functions; a warm run peeks only the
        # pair keys (and the whole keys of *rejected* functions), so it
        # faults in strictly fewer entries than the store holds.
        module = small_test_corpus(functions=5, seed=11)
        config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path))
        (_, cold), = validate_module_batch(
            [module], PAPER_PIPELINE, config, strategy="stepwise")
        assert cold.cache_stats["misses"] > 0
        (_, warm), = validate_module_batch(
            [module], PAPER_PIPELINE, config, strategy="stepwise")
        stats = warm.cache_stats
        assert stats["misses"] == 0  # >= 95% hit rate, trivially
        assert stats["hits"] > 0
        assert 0 < stats["store_lazy_loads"] < stats["disk_loaded"]
        # And the counters surface in the shard ledger too.
        assert warm.shard_stats["store_lazy_loads"] == stats["store_lazy_loads"]
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in warm.records]
