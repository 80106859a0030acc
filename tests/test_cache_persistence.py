"""Tests for the persistent ValidationCache through its public API.

Covers the roundtrip (save → load → all hits), the refusal of removed
JSON store paths and served-store addresses, content/config/module-context
keyed invalidation, tolerance of missing or misshapen store files, save-time
merging with a concurrent writer, the byte budget, and that the sharded batch driver reports
worker-answered queries in the cache totals without double counting.
SQLite-specific behaviour (lazy faulting, WAL, corruption and schema
recovery, mid-run faults) lives in ``test_proof_store.py``.
"""

import sqlite3
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import small_test_corpus
from repro.ir import clone_function, parse_function, parse_module
from repro.ir.printer import print_function
from repro.transforms import PAPER_PIPELINE
from repro.transforms.pass_manager import module_context_digest
from repro.validator import (
    DEFAULT_CONFIG,
    SQLITE_FILE_NAME,
    SQLITE_SCHEMA,
    Revalidator,
    ValidationCache,
    build_plan,
    llvm_md,
    validate,
    validate_module_batch,
)
from repro.validator.cache import _entry_size
from repro.validator.scheduler import validate_pair_cached

SHARDED = replace(DEFAULT_CONFIG, concurrency=2)


@pytest.fixture
def pair(loop_source):
    before = parse_function(loop_source)
    return before, clone_function(before)


class TestRoundtrip:
    def test_save_and_reload(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path)
        key = cache.key(before, after, DEFAULT_CONFIG)
        result = validate(before, after, DEFAULT_CONFIG)
        cache.put(key, result)
        written = cache.save()
        assert written == 1
        assert (tmp_path / SQLITE_FILE_NAME).exists()

        reloaded = ValidationCache(tmp_path)
        assert reloaded.loaded == 1
        stored = reloaded.peek(key)
        assert stored is not None
        assert stored.is_success == result.is_success
        assert stored.reason == result.reason
        assert stored.stats == result.stats
        assert stored.graph_nodes == result.graph_nodes

    def test_explicit_json_path(self, tmp_path):
        # JSON stores were removed; a .json path must fail loudly instead
        # of silently becoming a cache directory of that name.
        target = tmp_path / "custom.json"
        with pytest.raises(ValueError, match="JSON proof stores were removed"):
            ValidationCache(target)
        assert not target.exists()
        config = replace(DEFAULT_CONFIG, cache_dir=str(target))
        with pytest.raises(ValueError, match="JSON proof stores were removed"):
            llvm_md(small_test_corpus(functions=2, seed=3), PAPER_PIPELINE,
                    config)
        assert not target.exists()

    def test_remote_path_refused(self, tmp_path, monkeypatch):
        # A remote:// address must fail loudly in every driver instead of
        # silently becoming a "remote:" cache directory holding a fresh
        # SQLite file.
        monkeypatch.chdir(tmp_path)
        address = "remote://127.0.0.1:8742"
        refused = "served proof stores were removed"
        with pytest.raises(ValueError, match=refused):
            ValidationCache(address)
        # Path() folds "//" to "/", so the check must not rely on it.
        with pytest.raises(ValueError, match=refused):
            ValidationCache(Path(address))
        config = replace(DEFAULT_CONFIG, cache_dir=address)
        with pytest.raises(ValueError, match=refused):
            llvm_md(small_test_corpus(functions=2, seed=3), PAPER_PIPELINE,
                    config)
        with pytest.raises(ValueError, match=refused):
            Revalidator(config)
        assert list(tmp_path.iterdir()) == []

    def test_save_if_dirty_skips_clean_cache(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path)
        cache.put(cache.key(before, after, DEFAULT_CONFIG),
                  validate(before, after, DEFAULT_CONFIG))
        assert cache.save_if_dirty() == 1
        # No changes since the save: nothing to write.
        assert cache.save_if_dirty() == 0
        # A pure-memory cache has nowhere to save to.
        assert ValidationCache().save_if_dirty() == 0

    def test_llvm_md_warm_run_answers_from_disk(self, tmp_path):
        module = small_test_corpus(functions=5, seed=11)
        config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path))
        _, cold = llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        assert cold.cache_stats["misses"] > 0
        assert (tmp_path / SQLITE_FILE_NAME).exists()
        _, warm = llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["disk_loaded"] == cold.cache_stats["entries"]
        assert warm.cache_hits == sum(1 for r in warm.records if r.transformed)
        # Verdicts are unchanged by where the answers came from.
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in warm.records]


class TestInvalidation:
    def test_content_change_misses(self, pair):
        before, after = pair
        cache = ValidationCache()
        key = cache.key(before, after, DEFAULT_CONFIG)
        mutated = clone_function(after)
        mutated.block("body").instructions[0].opcode = "sub"
        assert cache.key(before, mutated, DEFAULT_CONFIG) != key

    def test_config_change_misses(self, tmp_path, pair):
        before, after = pair
        cache = ValidationCache(tmp_path)
        key = cache.key(before, after, DEFAULT_CONFIG)
        cache.put(key, validate(before, after, DEFAULT_CONFIG))
        cache.save()
        reloaded = ValidationCache(tmp_path)
        for changed in (DEFAULT_CONFIG.with_rules(("phi",)),
                        DEFAULT_CONFIG.with_engine("fullscan"),
                        replace(DEFAULT_CONFIG, matcher="simple"),
                        replace(DEFAULT_CONFIG, max_iterations=3),
                        replace(DEFAULT_CONFIG, recursion_limit=10_000)):
            assert reloaded.peek(reloaded.key(before, after, changed)) is None
        # Sharding/persistence knobs must NOT invalidate: they cannot
        # change a verdict.
        for same in (replace(DEFAULT_CONFIG, concurrency=4),
                     replace(DEFAULT_CONFIG, cache_dir="/elsewhere"),
                     replace(DEFAULT_CONFIG, analysis_cache_size=2)):
            assert reloaded.peek(reloaded.key(before, after, same)) is not None


#: ``@f`` -> ``@g`` forwards the stored value across the call to ``@h``:
#: sound exactly when ``@h`` does not write memory.  The two texts are
#: the same in both contexts; only the callee's attribute differs.
CALLEE_CONTEXT = """
declare i32 @h(i32) {attribute}

define i32 @f(i32* %p, i32 %a) {{
entry:
  store i32 %a, i32* %p
  %x = call i32 @h(i32 %a)
  %v = load i32, i32* %p
  %r = add i32 %v, %x
  ret i32 %r
}}

define i32 @g(i32* %p, i32 %a) {{
entry:
  store i32 %a, i32* %p
  %x = call i32 @h(i32 %a)
  %r = add i32 %a, %x
  ret i32 %r
}}

define i32 @k(i32 %a, i32 %b) {{
entry:
  %x = add i32 %a, %b
  %y = add i32 %a, %b
  %z = sub i32 %x, %y
  ret i32 %z
}}
"""


class TestModuleContext:
    """Keys cover what the printed pair does not show: callee attributes."""

    @staticmethod
    def module(attribute):
        return parse_module(CALLEE_CONTEXT.format(attribute=attribute),
                            name="ctx")

    def test_flipped_callee_attribute_never_shares_an_entry(self, tmp_path):
        pure, writer = self.module("readnone"), self.module("")
        assert print_function(pure.functions["f"]) == \
            print_function(writer.functions["f"])
        contexts = {name: module_context_digest(module)
                    for name, module in (("pure", pure), ("writer", writer))}
        verdicts = {}
        for name, module in (("pure", pure), ("writer", writer),
                             ("pure", pure)):
            # One store shared by every run, reopened between them.
            cache = ValidationCache(tmp_path)
            result, hit = validate_pair_cached(
                module.functions["f"], module.functions["g"], DEFAULT_CONFIG,
                cache, None, contexts[name])
            # Only the repeated context may hit: a flipped attribute
            # must never be answered by the other context's entry.
            assert hit == (name in verdicts)
            verdicts.setdefault(name, result.is_success)
            cache.save()
        assert verdicts == {"pure": True, "writer": False}

    def test_plan_keys_carry_the_module_context(self):
        # ``@k`` never calls ``@h`` and GVN rewrites it alike in both
        # modules; its key still carries the context.
        pure, writer = self.module("readnone"), self.module("")
        keys = []
        for module in (pure, writer):
            plan = build_plan([module], PAPER_PIPELINE, config=DEFAULT_CONFIG,
                              strategy="whole")
            keys.append({fp.function.name: fp.whole_key
                         for fp in plan.function_plans()})
        assert keys[0]["k"][:2] == keys[1]["k"][:2]  # same pair texts
        assert keys[0]["k"] != keys[1]["k"]
        assert keys[0]["k"][2] == module_context_digest(pure)


class TestCorruptionTolerance:
    """A damaged store costs a driver run time, never a verdict."""

    @staticmethod
    def _sweep(tmp_path):
        module = small_test_corpus(functions=4, seed=3)
        config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path))
        _, report = llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        return report

    @staticmethod
    def _execute(tmp_path, *statements):
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        try:
            for statement in statements:
                conn.execute(statement)
            conn.commit()
        finally:
            conn.close()

    def test_corrupted_file_starts_cold(self, tmp_path):
        reference = self._sweep(tmp_path / "clean")
        (tmp_path / SQLITE_FILE_NAME).write_bytes(b"{ not a database at all")
        cold = self._sweep(tmp_path)
        assert cold.cache_stats["disk_loaded"] == 0
        assert cold.cache_stats["store_errors"] == 0
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in reference.records]
        # The broken file was replaced by a working store.
        warm = self._sweep(tmp_path)
        assert warm.cache_stats["misses"] == 0

    def test_schema_mismatch_ignored(self, tmp_path):
        cold = self._sweep(tmp_path)
        self._execute(tmp_path, "PRAGMA user_version = %d" % (SQLITE_SCHEMA + 999))
        again = self._sweep(tmp_path)
        assert again.cache_stats["disk_loaded"] == 0
        assert again.cache_stats["misses"] == cold.cache_stats["misses"]
        assert [r.signature() for r in again.records] == \
               [r.signature() for r in cold.records]

    def test_malformed_entry_skipped_without_poisoning_neighbours(self, tmp_path):
        cold = self._sweep(tmp_path)
        self._execute(tmp_path,
                      "INSERT INTO entries (key, payload, size, last_hit)"
                      " VALUES ('garbage-key', 'not json', 8, 0)",
                      "UPDATE entries SET payload = '{}' WHERE rowid = ("
                      " SELECT MIN(rowid) FROM entries)")
        warm = self._sweep(tmp_path)
        # Only the mangled entry is re-validated; its neighbours still hit.
        assert warm.cache_stats["misses"] <= 1
        assert warm.cache_stats["hits"] > 0
        assert warm.cache_stats["store_errors"] == 0
        assert [r.signature() for r in warm.records] == \
               [r.signature() for r in cold.records]

    def test_wrong_toplevel_shape_ignored(self, tmp_path, pair):
        # A current-schema file whose table has the wrong shape: lookups
        # miss and the store degrades to the in-memory tier, never raises.
        before, after = pair
        conn = sqlite3.connect(str(tmp_path / SQLITE_FILE_NAME))
        conn.execute("CREATE TABLE entries (nonsense TEXT)")
        conn.execute("INSERT INTO entries VALUES ('x')")
        conn.execute("PRAGMA user_version = %d" % SQLITE_SCHEMA)
        conn.commit()
        conn.close()
        cache = ValidationCache(tmp_path)
        key = cache.key(before, after, DEFAULT_CONFIG)
        assert cache.get(key, before.name) is None
        cache.put(key, validate(before, after, DEFAULT_CONFIG))
        assert cache.get(key, before.name) is not None
        cache.save()
        assert cache.stats()["store_errors"] == 1
        cache.close()

    def test_missing_file_is_fine(self, tmp_path):
        cache = ValidationCache(tmp_path / "never" / "created")
        assert cache.loaded == 0 and len(cache) == 0


class TestMerge:
    def test_save_merges_with_concurrent_writer(self, tmp_path, pair, diamond_source):
        # Two caches share one directory; the second save must not clobber
        # what the first one stored.
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
        assert writer_b.save() == 2  # adopted writer_a's entry while saving
        assert ValidationCache(tmp_path).loaded == 2


class TestShardedPersistence:
    """Worker-merge correctness and no double counting through the pool."""

    def test_batch_worker_results_merge_into_persistent_cache(self, tmp_path):
        module = small_test_corpus(functions=6, seed=11)
        config = replace(SHARDED, cache_dir=str(tmp_path))
        (_, cold), = validate_module_batch([module], config=config, strategy="stepwise")
        assert cold.shard_stats["distinct_pairs"] > 0
        (_, warm), = validate_module_batch([module], config=config, strategy="stepwise")
        # Everything the workers proved was merged and persisted: the warm
        # run validates nothing anew, in the pool or inline.
        assert warm.shard_stats["distinct_pairs"] == 0
        assert warm.shard_stats["inline_validations"] == 0
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] > 0
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in warm.records]

    def test_no_double_counting(self, tmp_path):
        module = small_test_corpus(functions=6, seed=11)
        config = replace(SHARDED, cache_dir=str(tmp_path))
        cache = ValidationCache(tmp_path)
        validate_module_batch([module], config=config, cache=cache, strategy="stepwise")
        # Each distinct consumed query is counted exactly once as a miss or
        # a hit: total lookups == queries the strategy runners consumed.
        consumed = cache.hits + cache.misses
        transformed_queries = 0
        for function in module.defined_functions():
            transformed_queries += 1  # at least the final/whole aggregation
        assert consumed >= transformed_queries
        # Every *fresh* validation was counted as at most one miss.
        assert cache.misses <= len(cache)

    def test_serial_and_sharded_share_cache_entries(self, tmp_path):
        module = small_test_corpus(functions=6, seed=11)
        serial_config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path))
        _, serial = llvm_md(module, PAPER_PIPELINE, serial_config, strategy="stepwise")
        sharded_config = replace(SHARDED, cache_dir=str(tmp_path))
        (_, warm), = validate_module_batch(
            [module], config=sharded_config, strategy="stepwise")
        # The sharded driver keys pairs identically to the serial driver,
        # so it can consume a serially-built cache wholesale.
        assert warm.shard_stats["distinct_pairs"] == 0
        assert warm.cache_stats["misses"] == 0


class TestSizeBoundedBackend:
    """config.cache_max_bytes: least-recently-hit eviction at save time."""

    def _filled_cache(self, tmp_path, entries=6):
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

    @staticmethod
    def _one_entry_budget(cache, key):
        """A byte budget with room for ``key``'s entry and no other."""
        return _entry_size(key, cache.peek(key))

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache, _ = self._filled_cache(tmp_path)
        cache.save()
        assert cache.evicted == 0
        assert cache.stats()["disk_evicted"] == 0

    def test_budget_evicts_down_to_size(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        cache.max_bytes = 2048
        stored = cache.save()
        assert cache.evicted > 0
        assert stored == len(keys) - cache.evicted
        assert cache.stats()["disk_evicted"] == cache.evicted
        cache.close()
        reloaded = ValidationCache(tmp_path)
        assert reloaded.loaded == stored
        # The stored entries' logical footprint respects the budget.
        assert sum(_entry_size(key, reloaded.peek(key)) for key in keys
                   if reloaded.peek(key) is not None) <= 2048

    def test_least_recently_hit_evicted_first(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        # Touch the first key last: it becomes the most recently hit.
        assert cache.get(keys[0], "f0") is not None
        cache.max_bytes = self._one_entry_budget(cache, keys[0])
        cache.save()
        assert cache.evicted > 0
        cache.close()
        reopened = ValidationCache(tmp_path)
        assert reopened.loaded == 1
        assert reopened.peek(keys[0]) is not None, "hot entry must survive"

    def test_save_touches_only_stamps_set_since_the_last_save(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        touched = []
        store_touch = cache._store.touch

        def recording_touch(stamps):
            touched.append(dict(stamps))
            store_touch(stamps)

        cache._store.touch = recording_touch
        cache.save()
        assert set(touched[-1]) == set(keys)
        assert cache.get(keys[2], "f2") is not None
        cache.save()
        assert list(touched[-1]) == [keys[2]]
        cache.save()
        assert touched[-1] == {}
        # The one re-stamped entry is now the most recently hit on disk.
        cache.max_bytes = self._one_entry_budget(cache, keys[2])
        cache.save()
        cache.close()
        assert ValidationCache(tmp_path).peek(keys[2]) is not None

    def test_loaded_entries_rank_oldest(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        cache.save()
        # A new process opens the store (older recency stamps), then
        # stores one fresh entry; under pressure the fresh entry wins.
        reloaded = ValidationCache(tmp_path)
        before = parse_function(
            "define i32 @fresh(i32 %a) {\nentry:\n  %t = mul i32 %a, 7\n  ret i32 %t\n}")
        after = clone_function(before)
        fresh_key = reloaded.key(before, after, DEFAULT_CONFIG)
        reloaded.put(fresh_key, validate(before, after, DEFAULT_CONFIG))
        reloaded.max_bytes = self._one_entry_budget(reloaded, fresh_key)
        reloaded.save()
        assert reloaded.evicted > 0
        reloaded.close()
        assert ValidationCache(tmp_path).peek(fresh_key) is not None

    def test_config_budget_reaches_driver_cache(self, tmp_path):
        module = small_test_corpus(functions=4, seed=3)
        config = replace(DEFAULT_CONFIG, cache_dir=str(tmp_path),
                         cache_max_bytes=512)
        _, report = llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        stats = report.cache_stats
        assert stats is not None and "disk_evicted" in stats
        assert stats["disk_evicted"] > 0  # a real sweep far exceeds 512 bytes
        # Eviction costs re-validation only, never correctness: a second
        # sweep over the evicted cache reproduces identical records.
        _, again = llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        assert [r.signature() for r in report.records] == \
               [r.signature() for r in again.records]
