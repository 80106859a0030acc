"""Chain-shared value graphs: build each checkpoint once, keep verdicts exact.

The chain path (``config.chain_graphs``, on by default) may only change
how fast stepwise validation runs — never what it decides.  These tests
pin that contract from every side: construction sharing, read-off verdict
parity against the per-pair oracle (serial and sharded, accepting and
rejecting pipelines, trusted and iteration-capped normalizations), the
fallback on chain construction failure, cache interplay, and the
``chain_stats`` telemetry.
"""

import pickle
from dataclasses import replace

import pytest

from repro.analysis import AnalysisManager
from repro.ir import parse_function
from repro.transforms import PAPER_PIPELINE, PassManager, checkpoint_chain
from repro.transforms.pass_manager import module_context_digest
from repro.validator import (
    DEFAULT_CONFIG,
    ValidationCache,
    llvm_md,
    validate,
    validate_chain,
    validate_function_pipeline,
    validate_module_batch,
)
from repro.vgraph.builder import build_chain_graph, build_shared_graph

from tests.test_stepwise import BUGGY_PIPELINE

PER_PAIR = replace(DEFAULT_CONFIG, chain_graphs=False)


def _chains(module, passes=PAPER_PIPELINE, min_steps=2):
    """Yield (function, steps, versions) for every multi-step function."""
    for function in module.defined_functions():
        snapshots = PassManager(passes).run_with_snapshots(function)
        steps, versions = checkpoint_chain(function, snapshots)
        if len(steps) >= min_steps:
            yield function, steps, versions


class TestBuildChainGraph:
    def test_unchanged_subterms_exist_once(self, mini_corpus):
        checked = False
        for _, _, versions in _chains(mini_corpus):
            checked = True
            graph, summaries = build_chain_graph(versions)
            assert len(summaries) == len(versions)
            pair_nodes = 0
            for before, after in zip(versions, versions[1:]):
                pair_graph, _, _ = build_shared_graph(before, after)
                pair_nodes += pair_graph.next_id
            # The chain graph holds every version but shares unchanged
            # structure, so it is strictly smaller than re-building every
            # interior version twice.
            assert graph.next_id < pair_nodes
        assert checked

    def test_identical_versions_share_all_roots(self):
        # Loop-free bodies hash-cons completely (μ placeholders are the
        # one non-consed construction, handled by the cycle matchers), so
        # identical versions literally share their root nodes.
        fn = parse_function(
            """
            define i32 @straight(i32 %a, i32 %b) {
            entry:
              %t = add i32 %a, %b
              %u = mul i32 %t, %t
              ret i32 %u
            }
            """
        )
        graph, summaries = build_chain_graph([fn, fn, fn])
        for left, right in zip(summaries, summaries[1:]):
            assert graph.same(left.memory, right.memory)
            assert graph.same(left.result, right.result)

    def test_manager_analyses_each_version_once(self, mini_corpus):
        for _, _, versions in _chains(mini_corpus):
            manager = AnalysisManager()
            build_chain_graph(versions, manager)
            assert manager.computed == len(versions)
            assert manager.reused == 0

    def test_rejects_short_chains(self, loop_source):
        fn = parse_function(loop_source)
        from repro.errors import ValidationInternalError
        with pytest.raises(ValidationInternalError):
            validate_chain([fn])


class TestValidateChain:
    def test_trivially_equal_chain(self):
        fn = parse_function(
            """
            define i32 @straight(i32 %a, i32 %b) {
            entry:
              %t = add i32 %a, %b
              ret i32 %t
            }
            """
        )
        outcome = validate_chain([fn, fn, fn])
        assert not outcome.fallback
        assert all(r.is_success and r.reason == "trivially-equal"
                   for r in outcome.pair_results)
        assert outcome.whole_result is not None
        assert outcome.whole_result.is_success

    def test_identical_loop_versions_merge_like_per_pair(self, loop_source):
        # Loops build distinct μ placeholders per version (exactly as the
        # per-pair path does), so identical loop versions validate via
        # cycle unification — reason "equal", not "trivially-equal".
        fn = parse_function(loop_source)
        outcome = validate_chain([fn, fn, fn])
        isolated = validate(fn, fn)
        for result in outcome.pair_results:
            assert result.is_success
            assert result.reason == isolated.reason

    def test_accepts_match_isolated_pair_validation(self, mini_corpus):
        checked = False
        for _, _, versions in _chains(mini_corpus):
            outcome = validate_chain(versions, DEFAULT_CONFIG, AnalysisManager())
            if outcome.fallback:
                continue
            for index, result in enumerate(outcome.pair_results):
                isolated = validate(versions[index], versions[index + 1],
                                    DEFAULT_CONFIG)
                assert result.is_success == isolated.is_success
                assert result.reason == isolated.reason
                checked = True
        assert checked

    def test_chain_stats_shape(self, mini_corpus):
        for _, steps, versions in _chains(mini_corpus):
            outcome = validate_chain(versions)
            stats = outcome.chain_stats
            assert stats["chains"] == 1
            assert stats["chain_versions"] == len(versions) == len(steps) + 1
            assert stats["chain_pairs"] == len(steps)
            assert 0 < stats["chain_nodes_built"] <= stats["chain_nodes_created"]
            # Sharing must beat the estimated per-pair construction
            # baseline for any chain with an interior version.
            assert stats["chain_nodes_built"] < stats["chain_pair_baseline_nodes"]
            assert stats["chain_fallbacks"] == 0
            for key in ("chain_rewrites", "chain_sharing_merges",
                        "chain_cycle_merges"):
                assert stats[key] >= 0

    def test_pruning_scoped_rejects_are_not_trusted(self):
        # Observability pruning is root-scoped: the chain graph's goal
        # set spans every version, so the load in the LAST checkpoint
        # keeps the shared alloca observable and the dead store of the
        # FIRST pair is never pruned — the chain raw-rejects a pair an
        # isolated two-version run accepts, even at a natural fixpoint.
        # Such rejections must not be trusted (or cached): settling must
        # re-check them per-pair and recover the accepting verdict.
        store_version = parse_function(
            """
            define i32 @f(i32 %x) {
            entry:
              %t = alloca i32
              store i32 %x, i32* %t
              ret i32 %x
            }
            """
        )
        pruned_version = parse_function(
            """
            define i32 @f(i32 %x) {
            entry:
              %t = alloca i32
              ret i32 %x
            }
            """
        )
        loading_version = parse_function(
            """
            define i32 @f(i32 %x) {
            entry:
              %t = alloca i32
              %v = load i32, i32* %t
              ret i32 %v
            }
            """
        )
        versions = [store_version, pruned_version, loading_version]
        outcome = validate_chain(versions)
        assert not outcome.fallback
        # The isolated pair prunes the dead store and accepts ...
        isolated = validate(store_version, pruned_version)
        assert isolated.is_success
        # ... while the chain's raw read-off cannot (the hazard is real),
        # so its rejections must not be authoritative under a pruning-
        # enabled configuration, natural fixpoint or not.
        assert not outcome.pair_results[0].is_success
        assert not outcome.rejects_trusted
        from repro.validator.scheduler import settle_chain_results

        settled, _ = settle_chain_results(outcome, versions, DEFAULT_CONFIG)
        assert settled[0] is not None and settled[0].is_success
        assert settled[0].reason == isolated.reason

    def test_outcome_is_pickle_safe(self, mini_corpus):
        # Chain outcomes cross the worker-process boundary in the sharded
        # driver (as settled lists, but the dataclass must survive too).
        for _, _, versions in _chains(mini_corpus):
            outcome = validate_chain(versions)
            restored = pickle.loads(pickle.dumps(outcome))
            assert [r.reason for r in restored.pair_results] == \
                   [r.reason for r in outcome.pair_results]
            break


class TestChainRecordParity:
    """Chain graphs must reproduce the per-pair records byte for byte."""

    @pytest.mark.parametrize("passes", [PAPER_PIPELINE, BUGGY_PIPELINE])
    def test_serial_records_identical(self, mini_corpus, passes):
        for function in mini_corpus.defined_functions():
            _, chained = validate_function_pipeline(
                function, passes, strategy="stepwise")
            _, per_pair = validate_function_pipeline(
                function, passes, PER_PAIR, strategy="stepwise")
            assert chained.signature() == per_pair.signature()

    def test_untrusted_rejects_are_rechecked(self, mini_corpus):
        # An iteration-starved normalization cannot reach its natural
        # fixpoint, so chain rejections are not authoritative; the
        # provider must fall back to isolated per-pair verdicts and still
        # match the per-pair oracle under the same starved configuration.
        starved = replace(DEFAULT_CONFIG, max_iterations=1)
        starved_per_pair = replace(starved, chain_graphs=False)
        compared = 0
        for function in mini_corpus.defined_functions():
            _, chained = validate_function_pipeline(
                function, PAPER_PIPELINE, starved, strategy="stepwise")
            _, per_pair = validate_function_pipeline(
                function, PAPER_PIPELINE, starved_per_pair, strategy="stepwise")
            assert chained.signature() == per_pair.signature()
            compared += 1
        assert compared

    def test_module_reports_identical(self, mini_corpus):
        _, chained = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        _, per_pair = llvm_md(mini_corpus, PAPER_PIPELINE, PER_PAIR,
                              strategy="stepwise")
        assert [r.signature() for r in chained.records] == \
               [r.signature() for r in per_pair.records]
        totals = chained.chain_totals()
        assert totals["chains"] > 0
        assert totals["chain_fallbacks"] == 0
        # The report-level work counters must fold the chain's single
        # normalization in, or savings would be overstated.
        assert chained.engine_totals()["rule_invocations"] > 0

    def test_chain_rewrites_reach_engine_totals(self, mini_corpus):
        # The chain's single normalization carries its rewrites and merges
        # on the record, not on the per-pair results; the report totals
        # must fold them in, or a stepwise sweep reports zero rewrites.
        _, report = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        chain = report.chain_totals()
        assert chain["chains"] > 0 and chain["chain_fallbacks"] == 0
        assert chain["chain_rewrites"] > 0
        totals = report.engine_totals()
        assert totals["rewrites"] >= chain["chain_rewrites"] > 0
        for key in ("sharing_merges", "cycle_merges"):
            assert totals[key] >= chain[f"chain_{key}"]

    @pytest.mark.parametrize("passes", [PAPER_PIPELINE, BUGGY_PIPELINE])
    def test_sharded_chain_records_identical(self, mini_corpus, passes):
        _, serial = llvm_md(mini_corpus, passes, strategy="stepwise")
        sharded_config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, sharded), = validate_module_batch(
            [mini_corpus], passes, config=sharded_config, strategy="stepwise")
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in sharded.records]
        assert sharded.shard_stats["chain_items"] > 0

    def test_chain_falls_back_on_build_failure(self, mini_corpus, monkeypatch):
        # Break chain construction entirely: validate_chain degrades to
        # isolated per-pair validation and the records stay identical.
        import importlib

        validate_module = importlib.import_module("repro.validator.validate")
        from repro.errors import ValidationInternalError

        def exploding_build(versions, manager=None, fingerprints=None):
            raise ValidationInternalError("injected chain build failure")

        monkeypatch.setattr(validate_module, "build_chain_graph", exploding_build)
        checked = False
        for function in mini_corpus.defined_functions():
            _, chained = validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="stepwise")
            _, per_pair = validate_function_pipeline(
                function, PAPER_PIPELINE, PER_PAIR, strategy="stepwise")
            assert chained.signature() == per_pair.signature()
            if chained.chain_stats is not None:
                assert chained.chain_stats["chain_fallbacks"] == 1
                assert chained.chain_stats["chain_rewrites"] == 0
                checked = True
        assert checked


class TestChainCacheInterplay:
    def test_warm_cache_skips_chain_construction(self, mini_corpus):
        cache = ValidationCache()
        cold_records = []
        for function in mini_corpus.defined_functions():
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, cache=cache, strategy="stepwise")
            cold_records.append(record)
        assert any(r.chain_stats is not None for r in cold_records)
        warm_records = []
        for function in mini_corpus.defined_functions():
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, cache=cache, strategy="stepwise")
            warm_records.append(record)
        for cold, warm in zip(cold_records, warm_records):
            assert cold.signature() == warm.signature()
            if warm.transformed:
                assert warm.from_cache
            # A fully cached walk never builds a chain graph.
            assert warm.chain_stats is None

    def test_straggler_pairs_skip_chain_construction(self, mini_corpus):
        # A warm cache with only one uncached pair must not trigger a
        # full k-version chain build: the straggler validates in
        # isolation (chain_stats stays None, like the fully cached
        # case) and the record still matches the per-pair oracle.
        checked = False
        for function, _, versions in _chains(mini_corpus, min_steps=3):
            cache = ValidationCache()
            # Warm every adjacent pair except the last one.
            context = module_context_digest(function.parent)
            for before, after in list(zip(versions, versions[1:]))[:-1]:
                key = cache.key(before, after, DEFAULT_CONFIG, context)
                cache.put(key, validate(before, after, DEFAULT_CONFIG))
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, cache=cache, strategy="stepwise")
            assert record.chain_stats is None
            _, per_pair = validate_function_pipeline(
                function, PAPER_PIPELINE, PER_PAIR, strategy="stepwise")
            assert record.signature() == per_pair.signature()
            checked = True
        assert checked

    def test_chain_and_per_pair_share_cache_entries(self, mini_corpus):
        # Verdicts are mode-independent, so chain_graphs is (by design)
        # not part of the cache key: a cache warmed by the chain path
        # answers the per-pair path and vice versa.
        cache = ValidationCache()
        for function in mini_corpus.defined_functions():
            validate_function_pipeline(function, PAPER_PIPELINE,
                                       cache=cache, strategy="stepwise")
        misses_after_cold = cache.misses
        for function in mini_corpus.defined_functions():
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, PER_PAIR, cache=cache,
                strategy="stepwise")
            if record.transformed:
                assert record.from_cache
        assert cache.misses == misses_after_cold
