"""Tests for stepwise pipeline validation: snapshots, strategies, blame,
the shared analysis cache, worker-pool sharding parity and the
global-cloning guarantees of the driver."""

import pickle
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis import AnalysisManager, function_fingerprint
from repro.bench import (
    executor_comparison,
    small_test_corpus,
    stepwise_comparison,
)
from repro.errors import IrreducibleCFGError
from repro.ir import Interpreter, clone_function, parse_function
from repro.transforms import PAPER_PIPELINE, PassManager, checkpoint_chain
from repro.validator import (
    DEFAULT_CONFIG,
    STRATEGIES,
    ValidationCache,
    llvm_md,
    validate,
    validate_function_pipeline,
    validate_module_batch,
)
from repro.validator.report import FunctionRecord, ValidationReport
from repro.validator.validate import ValidationResult

#: The membership counters the executor reads off a live pool.
_NO_FLEET = SimpleNamespace(workers_joined=0, workers_left=0, rejected=0)

BUGGY_PIPELINE = ("adce", "bug-flip-operator", "gvn")

#: gvn folds the redundant add and dse kills the dead store: a kept
#: multi-step checkpoint.
REDUNDANT_STORES = """
define i32 @f(i32 %a, i32* %p) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %a, 1
  store i32 %x, i32* %p
  store i32 %y, i32* %p
  %r = add i32 %x, %y
  ret i32 %r
}
"""


class TestPassSnapshots:
    def test_input_never_mutated(self, mini_corpus):
        for function in mini_corpus.defined_functions():
            before = function_fingerprint(function)
            PassManager(PAPER_PIPELINE).run_with_snapshots(function)
            assert function_fingerprint(function) == before

    def test_changed_flags_match_run_on_function(self, mini_corpus):
        manager = PassManager(PAPER_PIPELINE)
        for function in mini_corpus.defined_functions():
            snapshots = manager.run_with_snapshots(function)
            changed = manager.run_on_function(clone_function(function))
            assert {s.pass_name: s.changed for s in snapshots} == changed

    def test_unchanged_steps_share_checkpoint_identity(self, mini_corpus):
        manager = PassManager(PAPER_PIPELINE)
        for function in mini_corpus.defined_functions():
            snapshots = manager.run_with_snapshots(function)
            previous = function
            for snapshot in snapshots:
                if snapshot.changed:
                    assert snapshot.function is not previous
                else:
                    assert snapshot.function is previous
                previous = snapshot.function

    def test_final_snapshot_equals_plain_optimization(self, mini_corpus):
        manager = PassManager(PAPER_PIPELINE)
        for function in mini_corpus.defined_functions():
            snapshots = manager.run_with_snapshots(function)
            plain = clone_function(function)
            manager.run_on_function(plain)
            assert function_fingerprint(snapshots[-1].function) == function_fingerprint(plain)

    def test_repeated_pass_names_keep_distinct_bookkeeping(self, mini_corpus):
        # A pipeline may run the same pass twice; the second occurrence
        # must not overwrite the first's changed flag (which could make a
        # transformed function look untransformed and silently skip
        # validation).
        manager = PassManager(("gvn", "adce", "gvn"))
        assert manager.step_names == ["gvn", "adce", "gvn#2"]
        for function in mini_corpus.defined_functions():
            snapshots = manager.run_with_snapshots(function)
            assert [s.pass_name for s in snapshots] == ["gvn", "adce", "gvn#2"]
            flags = manager.run_on_function(clone_function(function))
            assert {s.pass_name: s.changed for s in snapshots} == flags
            _, record = validate_function_pipeline(
                function, ("gvn", "adce", "gvn"), strategy="stepwise")
            if record.transformed and record.validated:
                assert record.kept_prefix == record.changed_steps

    def test_declaration_snapshots_are_noops(self):
        from repro.ir import parse_module

        fn = parse_module("declare i32 @ext(i32)").functions["ext"]
        snapshots = PassManager(PAPER_PIPELINE).run_with_snapshots(fn)
        assert [s.changed for s in snapshots] == [False] * len(PAPER_PIPELINE)
        assert all(s.function is fn for s in snapshots)


class TestAnalysisManager:
    def test_same_version_analysed_once(self, loop_source):
        fn = parse_function(loop_source)
        manager = AnalysisManager()
        first = manager.analyses_for(fn)
        second = manager.analyses_for(fn)
        assert first is second
        assert manager.computed == 1 and manager.reused == 1
        assert manager.stats() == {
            "analyses_computed": 1, "analyses_reused": 1,
            "analyses_evicted": 0, "analyses_cached": 1,
        }

    def test_in_place_mutation_invalidates(self, loop_source):
        fn = parse_function(loop_source)
        manager = AnalysisManager()
        manager.analyses_for(fn)
        fn.block("body").instructions[0].opcode = "sub"
        manager.analyses_for(fn)
        assert manager.computed == 2 and manager.reused == 0

    def test_clones_are_distinct_versions(self, loop_source):
        fn = parse_function(loop_source)
        manager = AnalysisManager()
        bundle = manager.analyses_for(fn)
        clone_bundle = manager.analyses_for(clone_function(fn))
        # Same fingerprint, different object: the bundle must describe the
        # object it was computed for (analyses reference its blocks).
        assert bundle.fingerprint == clone_bundle.fingerprint
        assert bundle is not clone_bundle
        assert manager.computed == 2

    def test_irreducible_function_rejected(self):
        fn = parse_function(
            """
            define i32 @irr(i1 %c) {
            entry:
              br i1 %c, label %a, label %b
            a:
              br label %b
            b:
              br i1 %c, label %a, label %exit
            exit:
              ret i32 0
            }
            """
        )
        with pytest.raises(IrreducibleCFGError):
            AnalysisManager().analyses_for(fn)

    def test_validate_reuses_shared_analyses(self, loop_source):
        fn = parse_function(loop_source)
        copy = clone_function(fn)
        manager = AnalysisManager()
        assert validate(fn, copy, manager=manager).is_success
        assert validate(fn, copy, manager=manager).is_success
        # Second query reuses both bundles instead of recomputing them.
        assert manager.computed == 2 and manager.reused == 2

    def test_stepwise_chain_prints_each_changed_checkpoint_once(self, monkeypatch):
        import repro.analysis.manager as manager_module

        printed = {}
        print_function = manager_module.print_function

        def counting(function):
            count, _ = printed.get(id(function), (0, None))
            # Keep the function alive so its id() is not reused.
            printed[id(function)] = (count + 1, function)
            return print_function(function)

        monkeypatch.setattr(manager_module, "print_function", counting)
        module = small_test_corpus(functions=6, seed=11)
        originals = {id(function) for function in module.defined_functions()}
        [(_, report)] = validate_module_batch([module], strategy="stepwise")
        assert report.chain_totals().get("chains", 0) > 0
        checkpoints = {key: count for key, (count, _) in printed.items()
                       if key not in originals}
        assert checkpoints
        # The planner remembers each changed checkpoint's hash; the
        # analyses of the chain build must answer from it, not re-print.
        assert set(checkpoints.values()) == {1}

    def test_stepwise_sweep_fingerprints_each_version_once(self, monkeypatch):
        # Originals are fingerprinted by the planner but never remembered
        # (the caller may mutate them); the chain build takes the plan's
        # fingerprints instead of printing them a second time.
        import repro.analysis.manager as manager_module

        calls = []
        fingerprint = manager_module.function_fingerprint

        def counting(function):
            calls.append(function)
            return fingerprint(function)

        monkeypatch.setattr(manager_module, "function_fingerprint", counting)
        module = small_test_corpus(functions=6, seed=11)
        [(_, report)] = validate_module_batch([module], strategy="stepwise")
        assert report.chain_totals().get("chains", 0) > 0
        versions = sum(1 + sum(record.transformed_by.values())
                       for record in report.records)
        assert len(calls) == versions


class TestStrategies:
    def test_unknown_strategy_rejected(self, mini_corpus):
        function = mini_corpus.defined_functions()[0]
        with pytest.raises(ValueError):
            validate_function_pipeline(function, PAPER_PIPELINE, strategy="bogus")

    def test_stepwise_accepts_superset_of_whole(self, mini_corpus):
        accepted = {}
        for strategy in STRATEGIES:
            names = set()
            for function in mini_corpus.defined_functions():
                _, record = validate_function_pipeline(
                    function, PAPER_PIPELINE, strategy=strategy)
                assert record.strategy == strategy
                if record.transformed and record.validated:
                    names.add(record.name)
            accepted[strategy] = names
        assert accepted["whole"] <= accepted["stepwise"]
        # Bisect's accepting fast path IS the whole query.
        assert accepted["bisect"] == accepted["whole"]

    def test_stepwise_fully_validated_record_shape(self, mini_corpus):
        seen_full = False
        for function in mini_corpus.defined_functions():
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="stepwise")
            if not (record.transformed and record.validated) or record.whole_fallback:
                continue
            seen_full = True
            assert record.result.reason == "stepwise-equal"
            assert record.kept_prefix == record.changed_steps
            assert record.blamed_pass is None
            assert len(record.pass_verdicts) == record.changed_steps
            assert all(v.is_success for v in record.pass_verdicts.values())
        assert seen_full

    def test_stepwise_interior_versions_analysed_once(self, mini_corpus):
        # The per-pair path's counter check: for a fully validated chain
        # of k changed steps there are k+1 versions and 2k builds, so
        # exactly k-1 lookups must be answered from the cache.  The
        # chain-shared path builds every version exactly once, so it
        # needs no analysis reuse at all.
        checked = False
        per_pair = replace(DEFAULT_CONFIG, chain_graphs=False)
        for function in mini_corpus.defined_functions():
            manager = AnalysisManager()
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, per_pair, strategy="stepwise",
                manager=manager)
            if not (record.transformed and record.validated) or record.whole_fallback:
                continue
            steps = record.changed_steps
            if steps < 2:
                continue
            checked = True
            assert manager.computed == steps + 1
            assert manager.reused == steps - 1
            assert record.analysis_stats == manager.stats()
            chain_manager = AnalysisManager()
            _, chain_record = validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="stepwise",
                manager=chain_manager)
            assert chain_record.signature() == record.signature()
            assert chain_manager.computed == steps + 1
            assert chain_manager.reused == 0
        assert checked

    def test_stepwise_blames_injected_bug(self, mini_corpus):
        rejected = 0
        for function in mini_corpus.defined_functions():
            kept, record = validate_function_pipeline(
                function, BUGGY_PIPELINE, strategy="stepwise")
            if not record.transformed_by.get("bug-flip-operator"):
                continue
            if record.validated:
                continue  # the flipped add was dead / unobservable
            rejected += 1
            assert record.blamed_pass == "bug-flip-operator"
            assert not record.pass_verdicts["bug-flip-operator"].is_success
            # The kept checkpoint is the end of the validated prefix, and
            # every verdict before the blamed pass succeeded.
            verdicts = list(record.pass_verdicts.values())
            assert all(v.is_success for v in verdicts[:-1])
        assert rejected > 0

    def test_bisect_blames_injected_bug(self, mini_corpus):
        rejected = 0
        for function in mini_corpus.defined_functions():
            _, record = validate_function_pipeline(
                function, BUGGY_PIPELINE, strategy="bisect")
            if not record.transformed_by.get("bug-flip-operator"):
                continue
            if record.validated:
                continue
            rejected += 1
            assert record.blamed_pass == "bug-flip-operator"
            assert "bisected" in record.result.detail
        assert rejected > 0

    def test_every_buggy_pass_blamed_correctly(self, mini_corpus):
        """Both blame strategies attribute every injector's rejection to it."""
        from repro.transforms import ALL_BUGGY_PASSES

        attributed = 0
        for bug_pass in ALL_BUGGY_PASSES:
            pipeline = ("adce", "gvn", bug_pass, "dse")
            for function in mini_corpus.defined_functions():
                for strategy in ("stepwise", "bisect"):
                    _, record = validate_function_pipeline(
                        function, pipeline, strategy=strategy)
                    if not record.transformed_by.get(bug_pass) or record.validated:
                        continue  # injector idle, or the breakage is unobservable
                    attributed += 1
                    assert record.blamed_pass == bug_pass, (
                        bug_pass, strategy, function.name, record.blamed_pass)
        assert attributed > 0

    def test_partial_keep_is_semantically_sound(self, mini_corpus):
        """A partially kept body must still behave like the original."""
        result_module, report = llvm_md(
            mini_corpus, BUGGY_PIPELINE, label="buggy", strategy="stepwise")
        partial = [r for r in report.records if r.partially_kept]
        assert partial, "expected at least one partial keep under the buggy pipeline"
        for record in partial:
            original = mini_corpus.get_function(record.name)
            kept = result_module.get_function(record.name)
            for base in [(2, 4, 6, 8, 10), (-1, 3, 0, 5, 2), (0, 0, 0, 0, 0)]:
                args = list(base[: len(original.args)])
                before = Interpreter(mini_corpus).run(original, args).return_value
                after = Interpreter(result_module).run(kept, args).return_value
                assert before == after, record.name

    def test_stepwise_cache_answers_repeat_runs(self, mini_corpus):
        cache = ValidationCache()
        _, first = llvm_md(mini_corpus, PAPER_PIPELINE, cache=cache, strategy="stepwise")
        misses = cache.misses
        _, second = llvm_md(mini_corpus, PAPER_PIPELINE, cache=cache, strategy="stepwise")
        # Identical adjacent pairs: the second run validates nothing anew.
        assert cache.misses == misses
        assert second.cache_hits == sum(
            1 for r in second.records if r.transformed)

    def test_skip_unchanged_false_validates_identity(self):
        fn = parse_function("define i32 @id(i32 %a) {\nentry:\n  ret i32 %a\n}")
        kept, record = validate_function_pipeline(
            fn, PAPER_PIPELINE, skip_unchanged=False, strategy="stepwise")
        assert kept is fn
        assert record.result.is_success
        assert record.result.reason == "trivially-equal"

    def test_whole_records_kept_prefix(self, mini_corpus):
        for function in mini_corpus.defined_functions():
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="whole")
            if record.transformed and record.validated:
                assert record.kept_prefix == record.changed_steps
            else:
                assert record.kept_prefix == 0


class TestDriverModuleGuarantees:
    def test_result_module_shares_no_globals_or_functions(self, mini_corpus,
                                                          assembly_calls):
        for strategy in STRATEGIES:
            result_module, _ = llvm_md(mini_corpus, PAPER_PIPELINE, strategy=strategy)
            # The serial driver's module comes from the one assembly
            # function, adopting its call-private checkpoints.
            assert len(assembly_calls) == STRATEGIES.index(strategy) + 1
            assert assembly_calls[-1][0] is result_module
            assert assembly_calls[-1][1] is False
            for name, global_var in result_module.globals.items():
                assert global_var is not mini_corpus.globals[name]
            originals = set(map(id, mini_corpus.globals.values()))
            originals.update(map(id, mini_corpus.functions.values()))
            for function in result_module.functions.values():
                for inst in function.instructions():
                    for operand in inst.operands:
                        assert id(operand) not in originals, (
                            f"@{function.name} still references an input-module "
                            f"global or function")

    @pytest.mark.parametrize("batch", [False, True])
    def test_edited_result_function_is_fingerprinted_afresh(self, parse,
                                                            batch):
        # A kept checkpoint adopted into the result module is the
        # caller's to edit: the checkpoint fingerprint table must not
        # answer for it with its pre-edit content.
        from repro.analysis.manager import CHECKPOINT_FINGERPRINTS
        from repro.ir.values import ConstantInt

        module = parse(REDUNDANT_STORES)
        if batch:
            (result_module, report), = validate_module_batch(
                [module], strategy="stepwise")
        else:
            result_module, report = llvm_md(module, strategy="stepwise")
        assert report.records[0].kept_prefix >= 1
        function = result_module.functions["f"]
        ret = function.blocks[-1].instructions[-1]
        ret.operands[0] = ConstantInt(ret.operands[0].type, 42)
        assert (CHECKPOINT_FINGERPRINTS.fingerprint(function)
                == function_fingerprint(function))

    def test_result_module_global_mutation_is_isolated(self, mini_corpus):
        result_module, _ = llvm_md(mini_corpus, PAPER_PIPELINE)
        name = next(iter(result_module.globals))
        original_init = mini_corpus.globals[name].initializer
        result_module.globals[name].initializer = None
        assert mini_corpus.globals[name].initializer is original_init


class TestNormalizeErrorReason:
    def test_normalization_failure_reported_as_normalize_error(self, loop_source, monkeypatch):
        import importlib

        from repro.errors import ValidationInternalError

        # ``repro.validator``'s re-exported ``validate`` function shadows
        # the submodule attribute, so resolve the module explicitly.
        validate_module = importlib.import_module("repro.validator.validate")

        class ExplodingNormalizer:
            def __init__(self, *args, **kwargs):
                pass

            def normalize_until_equal(self, goal_pairs):
                raise ValidationInternalError("injected normalization failure")

        monkeypatch.setattr(validate_module, "Normalizer", ExplodingNormalizer)
        fn = parse_function(loop_source)
        result = validate_module.validate(fn, clone_function(fn))
        assert not result.is_success
        assert result.reason == "normalize-error"
        assert "injected" in result.detail


class TestReportExtensions:
    def test_blame_histogram_and_prefix_aggregates(self):
        report = ValidationReport(label="x")
        ok = FunctionRecord("a", {"gvn": True},
                            ValidationResult("a", True, "stepwise-equal"),
                            strategy="stepwise", kept_prefix=1)
        partial = FunctionRecord("b", {"gvn": True, "dse": True},
                                 ValidationResult("b", False, "normalization-exhausted"),
                                 strategy="stepwise", blamed_pass="dse", kept_prefix=1)
        rolled_back = FunctionRecord("c", {"gvn": True},
                                     ValidationResult("c", False, "normalization-exhausted"),
                                     strategy="bisect", blamed_pass="gvn", kept_prefix=0)
        for record in (ok, partial, rolled_back):
            report.add(record)
        assert report.blame_histogram() == {"dse": 1, "gvn": 1}
        assert report.partially_kept_functions == 1
        assert report.kept_prefix_steps == 1
        assert partial.partially_kept and not ok.partially_kept
        assert not rolled_back.partially_kept


class TestShardedParity:
    """Sharding may change where a query runs, never what it decides."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sharded_records_identical_to_serial(self, mini_corpus, strategy):
        _, serial = llvm_md(mini_corpus, PAPER_PIPELINE, strategy=strategy)
        sharded_config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, sharded), = validate_module_batch(
            [mini_corpus], config=sharded_config, strategy=strategy)
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in sharded.records]
        assert sharded.shard_stats is not None
        assert sharded.shard_stats["distinct_pairs"] > 0

    def test_sharded_blame_matches_serial_on_buggy_pipeline(self, mini_corpus):
        _, serial = llvm_md(mini_corpus, BUGGY_PIPELINE, strategy="stepwise")
        sharded_config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, sharded), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE, config=sharded_config, strategy="stepwise")
        assert serial.blame_histogram() == sharded.blame_histogram()
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in sharded.records]
        # Rejections exercised round 2 (the whole-query fallbacks).
        assert serial.failures(), "the buggy pipeline should reject something"

    def test_llvm_md_delegates_to_sharded_batch(self, mini_corpus):
        config = replace(DEFAULT_CONFIG, concurrency=2)
        _, report = llvm_md(mini_corpus, PAPER_PIPELINE, config, strategy="stepwise")
        assert report.shard_stats is not None
        _, serial = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]

    def test_cross_module_pair_dedup(self):
        # Two content-identical modules: the sharded queue validates each
        # distinct pair once, the duplicate module is all cache hits.
        modules = [small_test_corpus(functions=4, seed=7),
                   small_test_corpus(functions=4, seed=7)]
        cache = ValidationCache()
        config = replace(DEFAULT_CONFIG, concurrency=2)
        results = validate_module_batch(
            modules, config=config, cache=cache, strategy="stepwise")
        duplicate_report = results[1][1]
        assert duplicate_report.cache_hits == sum(
            1 for r in duplicate_report.records if r.transformed)
        assert all(r.from_cache for r in duplicate_report.records if r.transformed)
        # Distinct consumed queries were counted exactly once overall.
        assert cache.misses <= len(cache)

    def test_batch_stepwise_partial_keep_is_semantically_sound(self, mini_corpus):
        config = replace(DEFAULT_CONFIG, concurrency=2)
        (result_module, report), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE, config=config, strategy="stepwise")
        partial = [r for r in report.records if r.partially_kept]
        assert partial, "expected a partial keep under the buggy pipeline"
        for record in partial:
            original = mini_corpus.get_function(record.name)
            kept = result_module.get_function(record.name)
            for base in [(2, 4, 6, 8, 10), (-1, 3, 0, 5, 2), (0, 0, 0, 0, 0)]:
                args = list(base[: len(original.args)])
                before = Interpreter(mini_corpus).run(original, args).return_value
                after = Interpreter(result_module).run(kept, args).return_value
                assert before == after, record.name


class TestPoolPayloadPickleSafety:
    """Everything shipped to steal workers must survive pickling."""

    def test_checkpoints_and_configs_pickle(self, mini_corpus):
        function = mini_corpus.defined_functions()[0]
        snapshots = PassManager(PAPER_PIPELINE).run_with_snapshots(function)
        steps, versions = checkpoint_chain(function, snapshots)
        for before, after in zip(versions, versions[1:]):
            payload = (before, after, replace(DEFAULT_CONFIG, concurrency=2))
            restored_before, restored_after, restored_config = pickle.loads(
                pickle.dumps(payload))
            assert function_fingerprint(restored_before) == function_fingerprint(before)
            assert function_fingerprint(restored_after) == function_fingerprint(after)
            assert restored_config == replace(DEFAULT_CONFIG, concurrency=2)
        for snapshot in snapshots:
            restored = pickle.loads(pickle.dumps(snapshot))
            assert restored.pass_name == snapshot.pass_name
            assert restored.changed == snapshot.changed

    def test_snapshot_fingerprint_cached_and_stable(self, mini_corpus):
        function = mini_corpus.defined_functions()[0]
        snapshots = PassManager(PAPER_PIPELINE).run_with_snapshots(function)
        for snapshot in snapshots:
            assert snapshot.fingerprint() == function_fingerprint(snapshot.function)
            assert snapshot.fingerprint() is snapshot.fingerprint()  # cached

    def test_pool_failure_falls_back_to_serial(self, mini_corpus, monkeypatch):
        # Break process spawning entirely: the batch driver must degrade
        # to serial in-process validation with identical results.
        from repro.validator.scheduler import transport

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(transport, "TcpStealPool", ExplodingPool)
        config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, report), = validate_module_batch(
            [mini_corpus], config=config, strategy="stepwise")
        assert report.shard_stats["workers"] == 0  # pool never engaged
        assert report.shard_stats["pool_degraded"] >= 1
        _, serial = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]


class TestExecutorBackends:
    """``config.concurrency`` alone decides whether the executor's pool
    runs; the schedule may change where and in what order queries run,
    never what they decide."""

    #: Each leg is one route to the executor: the batch driver in-process
    #: at concurrency 0 and 1, ``llvm_md`` delegating to it at 2, and the
    #: batch driver's pool at 2.  The ids are the suite's stable names.
    LEGS = [
        pytest.param(validate_module_batch, 0, id="serial-0"),
        pytest.param(validate_module_batch, 1, id="steal-0"),
        pytest.param(llvm_md, 2, id="auto-2"),
        pytest.param(validate_module_batch, 2, id="steal-2"),
    ]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("driver,concurrency", LEGS)
    def test_backend_records_identical(self, mini_corpus, strategy, driver,
                                       concurrency):
        _, serial = llvm_md(mini_corpus, PAPER_PIPELINE, strategy=strategy)
        config = replace(DEFAULT_CONFIG, concurrency=concurrency)
        if driver is llvm_md:
            _, report = llvm_md(mini_corpus, PAPER_PIPELINE, config,
                                strategy=strategy)
        else:
            (_, report), = validate_module_batch(
                [mini_corpus], config=config, strategy=strategy)
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]
        assert "executor" not in report.shard_stats
        if concurrency <= 1:
            assert report.shard_stats["workers"] == 0
            assert report.shard_stats["pooled_pairs"] == 0

    def test_llvm_md_delegates_on_steal_executor(self, mini_corpus):
        # Workers send llvm_md through the batch driver's executor; at
        # concurrency 0 and 1 it stays on its lazy per-function path.
        config = replace(DEFAULT_CONFIG, concurrency=2)
        _, report = llvm_md(mini_corpus, PAPER_PIPELINE, config, strategy="stepwise")
        assert report.shard_stats is not None
        assert report.shard_stats["workers"] == 2
        _, serial = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        assert serial.shard_stats is None
        _, single = llvm_md(mini_corpus, PAPER_PIPELINE,
                            replace(DEFAULT_CONFIG, concurrency=1),
                            strategy="stepwise")
        assert single.shard_stats is None
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]

    def test_negative_concurrency_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="concurrency must be >= 0"):
            replace(DEFAULT_CONFIG, concurrency=-3)
        replace(DEFAULT_CONFIG, concurrency=0)
        replace(DEFAULT_CONFIG, concurrency=1)

    @pytest.mark.parametrize("concurrency", [0, 2])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_schedule_enters_execute(self, mini_corpus, monkeypatch,
                                           strategy, concurrency):
        # Timing the execute layer wraps Executor.execute, so every batch
        # run, whatever its strategy or pool width, must enter it exactly
        # once.
        from repro.validator.scheduler import executors

        original = executors.Executor.execute
        entries = []

        def counted(self, plan, cache, budget=None):
            entries.append(plan.strategy)
            return original(self, plan, cache, budget=budget)

        monkeypatch.setattr(executors.Executor, "execute", counted)
        config = replace(DEFAULT_CONFIG, concurrency=concurrency)
        for _ in range(2):
            validate_module_batch([mini_corpus], config=config,
                                  strategy=strategy)
        assert entries == [strategy, strategy]

    def test_executor_comparison_experiment(self):
        rows = executor_comparison(scale=0.2, benchmarks=["sqlite", "mcf"],
                                   concurrency=2)
        assert [row["benchmark"] for row in rows] == ["sqlite", "mcf"]
        for row in rows:
            assert row["identical"], row["mismatches"]
            assert row["batch_pairs"] > 0
            assert row["steal_pairs"] > 0


class TestStealExecutor:
    """The executor's dispatch queue: single-worker parity, the mixed
    chain+pair queue, dispatch order, streaming cancellation and
    counter plumbing."""

    def test_single_worker_matches_serial(self, mini_corpus):
        # concurrency 0 spawns no processes: the queue drains in-process
        # in priority order — the deterministic parity baseline for the
        # pool.
        _, serial = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        (_, report), = validate_module_batch(
            [mini_corpus], config=DEFAULT_CONFIG, strategy="stepwise")
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]
        assert report.shard_stats["workers"] == 0
        assert report.shard_stats["pooled_pairs"] == 0

    def test_mixed_chain_and_pair_queue(self):
        # Both kinds of work item side by side on the shared queue: a
        # partially warmed cache leaves some functions one missing pair
        # (shipped as plain pair items — the chain no longer amortizes)
        # while untouched functions still pack whole chain items.
        from repro.validator import build_plan

        module = small_test_corpus(functions=6, seed=11)
        config = replace(DEFAULT_CONFIG, concurrency=2)
        cache = ValidationCache()
        probe = build_plan([module], config=config, strategy="stepwise")
        for index, function_plan in enumerate(probe.function_plans()):
            if index % 2 or len(function_plan.pair_keys) < 2:
                continue
            pairs = list(zip(function_plan.versions, function_plan.versions[1:]))
            for key, (before, after) in list(zip(function_plan.pair_keys,
                                                 pairs))[1:]:
                cache.put(key, validate(before, after, config))
        plan = build_plan([module], config=config, cache=cache,
                          strategy="stepwise")
        assert plan.pending, "expected straggler pair items"
        assert plan.pending_chains, "expected packed chain items"
        _, serial = llvm_md(module, PAPER_PIPELINE, strategy="stepwise")
        (_, report), = validate_module_batch(
            [module], config=config, cache=cache, strategy="stepwise")
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]
        assert report.shard_stats["chain_items"] > 0
        # More items ran through the pool than the chains alone: the
        # straggler pairs shared the queue.
        assert report.shard_stats["pooled_pairs"] > \
            report.shard_stats["chain_items"]

    @staticmethod
    def _eager_query_count(module, passes, config) -> int:
        """Queries a schedule without cancellation would answer: every
        planned pair, then the settle round those verdicts demand."""
        from repro.validator import build_plan
        from repro.validator.scheduler import pending_whole_queries

        cache = ValidationCache()
        plan = build_plan([module], passes, config, cache, strategy="stepwise")
        for key, (before, after) in plan.pending.items():
            cache.put(key, validate(before, after, config))
        return len(plan.pending) + len(pending_whole_queries(plan, cache))

    def test_steal_cancellation_on_buggy_pipeline(self, mini_corpus):
        # With chain packing off, every adjacent pair rides the queue
        # individually and the stream of rejections cancels the doomed
        # later pairs — deterministically so with concurrency 0.  A
        # schedule without cancellation would pay for all of them.
        _, serial = llvm_md(mini_corpus, BUGGY_PIPELINE, strategy="stepwise")
        config = replace(DEFAULT_CONFIG, concurrency=0, chain_graphs=False)
        (_, report), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE, config=config, strategy="stepwise")
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]
        assert report.shard_stats["speculative_pairs_skipped"] > 0
        # Fewer distinct queries answered than the plan's pairs plus the
        # settle round.
        assert report.shard_stats["distinct_pairs"] < \
            self._eager_query_count(mini_corpus, BUGGY_PIPELINE, config)

    def test_steal_on_accepting_pipeline_cancels_nothing(self, mini_corpus):
        # Without a rejection no pair is doomed: steal answers exactly
        # the plan's queries.
        passes = ("adce", "gvn", "sccp", "licm")
        _, serial = llvm_md(mini_corpus, passes, strategy="stepwise")
        config = replace(DEFAULT_CONFIG, chain_graphs=False)
        (_, report), = validate_module_batch(
            [mini_corpus], passes, config=config, strategy="stepwise")
        assert all(r.validated for r in report.records if r.transformed)
        assert [r.signature() for r in serial.records] == \
               [r.signature() for r in report.records]
        assert report.shard_stats["speculative_pairs_skipped"] == 0
        assert report.shard_stats["distinct_pairs"] == \
            self._eager_query_count(mini_corpus, passes, config)

    @pytest.mark.parametrize("chain_graphs", [False, True],
                             ids=["pairs", "chains"])
    def test_pooled_dispatch_follows_the_in_process_order(
            self, mini_corpus, monkeypatch, chain_graphs):
        # One dispatch queue feeds both loops: a pool answering in send
        # order is handed the items in tag order, exactly the items the
        # in-process loop validates and in the same order (nothing is
        # cancelled on an accepting pipeline).
        from repro.validator import build_plan
        from repro.validator.scheduler import executors, transport

        passes = ("adce", "gvn", "sccp", "licm")
        config = replace(DEFAULT_CONFIG, concurrency=2,
                         chain_graphs=chain_graphs)
        plan = build_plan([mini_corpus], passes, config, ValidationCache(),
                          strategy="stepwise")
        validate_item = executors._validate_item

        def identity(item):
            return item[0], id(item[1]), id(item[2])

        in_process = []

        def recording(item):
            in_process.append(identity(item))
            return validate_item(item)

        monkeypatch.setattr(executors, "_validate_item", recording)
        executors.Executor(0).execute(plan, ValidationCache())
        monkeypatch.setattr(executors, "_validate_item", validate_item)

        sent = []

        class RecordingPool:
            coordinator = _NO_FLEET

            def __init__(self, workers, config):
                self.pending = {}

            def send(self, tag, item):
                sent.append((tag, identity(item)))
                self.pending[tag] = item
                return 0

            def receive(self, outstanding_tags):
                tag, item = next(iter(self.pending.items()))
                del self.pending[tag]
                return tag, True, validate_item(item)

            def close(self):
                self.pending.clear()

        monkeypatch.setattr(transport, "TcpStealPool", RecordingPool)
        pooled = executors.Executor(2)
        try:
            pooled.execute(plan, ValidationCache())
        finally:
            pooled.close()
        assert len(in_process) > 2
        assert [tag for tag, _ in sent] == list(range(len(in_process)))
        assert [entry for _, entry in sent] == in_process

    def test_worker_death_mid_steal_degrades_losslessly(self, mini_corpus,
                                                        monkeypatch):
        # The pool dies after streaming two verdicts back: those verdicts
        # are kept, the unfinished remainder reruns serially, and the
        # consumed-query ledger matches a clean serial run exactly.
        from repro.validator.scheduler import transport
        from repro.validator.scheduler.executors import _validate_item

        class FlakyStealPool:
            coordinator = _NO_FLEET

            def __init__(self, workers, config):
                self.pending = {}
                self.completed = 0

            def send(self, tag, item):
                self.pending[tag] = item
                # The real pool's contract: encode, return the size.
                return len(transport.encode_item(tag, item))

            def receive(self, outstanding_tags):
                if self.completed >= 2:
                    raise transport.BrokenStealPool("worker died mid-steal")
                tag, item = next(iter(self.pending.items()))
                del self.pending[tag]
                self.completed += 1
                return tag, True, _validate_item(item)

            def close(self):
                self.pending.clear()

        monkeypatch.setattr(transport, "TcpStealPool", FlakyStealPool)
        clean_cache = ValidationCache()
        (_, clean), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE,
            config=DEFAULT_CONFIG,
            cache=clean_cache, strategy="stepwise")
        flaky_cache = ValidationCache()
        config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, report), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE, config=config,
            cache=flaky_cache, strategy="stepwise")
        assert [r.signature() for r in clean.records] == \
               [r.signature() for r in report.records]
        assert report.shard_stats["pool_degraded"] >= 1
        # The two streamed verdicts were kept (not re-run serially) and
        # no cache query was lost or double-counted.
        assert flaky_cache.hits == clean_cache.hits
        assert flaky_cache.misses == clean_cache.misses
        assert flaky_cache.misses <= len(flaky_cache)

    def test_steal_counters_reach_shard_stats(self):
        # Enough items across few-enough workers that the pool's
        # bookkeeping is exercised and reported.
        module = small_test_corpus(functions=14, seed=11)
        config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, report), = validate_module_batch(
            [module], config=config, strategy="stepwise")
        stats = report.shard_stats
        assert stats["pooled_pairs"] > 0
        assert stats["bytes_dispatched"] > 0
        assert "store_flushes" in stats and "store_lazy_loads" in stats


class TestFaultInjection:
    """Workers that die or raise mid-batch degrade to serial losslessly:
    records stay identical and no cache query is lost or double-counted."""

    @staticmethod
    def _flaky_steal_pool(failure, results_before_failure: int = 1):
        """A fake worker pool: streams real verdicts, then fails.

        Items go through the real encoder and decoder.  ``failure`` is
        the exception ``receive`` raises once ``results_before_failure``
        verdicts have streamed back, or ``None`` for a live worker that
        reports its item raised (``ok=False``).
        """
        from repro.validator.scheduler import transport
        from repro.validator.scheduler.executors import _validate_item

        class FlakyStealPool:
            coordinator = _NO_FLEET

            def __init__(self, workers, config):
                self.pending = {}
                self.completed = 0

            def send(self, tag, item):
                payload = transport.encode_item(tag, item)
                decoded_tag, decoded = pickle.loads(payload)
                self.pending[decoded_tag] = decoded
                return len(payload)

            def receive(self, outstanding_tags):
                tag, item = next(iter(self.pending.items()))
                del self.pending[tag]
                if self.completed >= results_before_failure:
                    if failure is not None:
                        raise failure
                    return tag, False, "RuntimeError: raised mid-batch"
                self.completed += 1
                return tag, True, _validate_item(item)

            def close(self):
                self.pending.clear()

        return FlakyStealPool

    def test_worker_death_mid_batch_degrades_losslessly(self, mini_corpus,
                                                        monkeypatch):
        from repro.validator.scheduler import transport

        monkeypatch.setattr(
            transport, "TcpStealPool",
            self._flaky_steal_pool(
                transport.BrokenStealPool("worker died mid-batch")))
        clean_cache = ValidationCache()
        (_, clean), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE,
            config=DEFAULT_CONFIG,
            cache=clean_cache, strategy="stepwise")
        flaky_cache = ValidationCache()
        config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, report), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE, config=config,
            cache=flaky_cache, strategy="stepwise")
        assert [r.signature() for r in clean.records] == \
               [r.signature() for r in report.records]
        assert report.shard_stats["pool_degraded"] >= 1
        # Only the one verdict streamed back before the death ran pooled.
        assert report.shard_stats["pooled_pairs"] == 1
        # No lost or double-counted cache queries: the degraded run's
        # consumed-query ledger is identical to the clean serial run's.
        assert flaky_cache.hits == clean_cache.hits
        assert flaky_cache.misses == clean_cache.misses
        assert flaky_cache.misses <= len(flaky_cache)

    def test_worker_exception_mid_batch_degrades_losslessly(self, mini_corpus,
                                                            monkeypatch):
        from repro.validator.scheduler import transport

        monkeypatch.setattr(transport, "TcpStealPool",
                            self._flaky_steal_pool(None))
        clean_cache = ValidationCache()
        (_, clean), = validate_module_batch(
            [mini_corpus], PAPER_PIPELINE,
            config=DEFAULT_CONFIG,
            cache=clean_cache, strategy="stepwise")
        flaky_cache = ValidationCache()
        config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, report), = validate_module_batch(
            [mini_corpus], PAPER_PIPELINE, config=config,
            cache=flaky_cache, strategy="stepwise")
        assert [r.signature() for r in clean.records] == \
               [r.signature() for r in report.records]
        assert report.shard_stats["pool_degraded"] >= 1
        assert flaky_cache.stats() == clean_cache.stats()

    def test_degraded_run_consumes_every_query_once(self, mini_corpus,
                                                    monkeypatch):
        # Each transformed function's consumed queries are counted exactly
        # once as hit or miss even after a mid-batch degradation: misses
        # equal the distinct entries actually stored, and every consumed
        # key was counted.
        from repro.validator.scheduler import transport

        monkeypatch.setattr(
            transport, "TcpStealPool",
            self._flaky_steal_pool(transport.BrokenStealPool("boom"), 2))
        cache = ValidationCache()
        config = replace(DEFAULT_CONFIG, concurrency=2)
        (_, report), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE, config=config,
            cache=cache, strategy="stepwise")
        assert cache.misses <= len(cache)
        assert cache.misses > 0
        # A second identical sweep answers everything from the cache.
        (_, second), = validate_module_batch(
            [mini_corpus], BUGGY_PIPELINE, config=config,
            cache=cache, strategy="stepwise")
        assert [r.signature() for r in report.records] == \
               [r.signature() for r in second.records]
        assert all(r.from_cache for r in second.records if r.transformed)


class TestAnalysisEviction:
    """The LRU bound changes memory behavior, never verdicts."""

    def test_eviction_preserves_stepwise_records(self, mini_corpus):
        unbounded_records = []
        bounded_records = []
        for function in mini_corpus.defined_functions():
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="stepwise",
                manager=AnalysisManager())
            unbounded_records.append(record)
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="stepwise",
                manager=AnalysisManager(max_entries=2))
            bounded_records.append(record)
        assert [r.signature() for r in unbounded_records] == \
               [r.signature() for r in bounded_records]

    def test_bound_enforced_and_counted(self, mini_corpus):
        manager = AnalysisManager(max_entries=2)
        for function in mini_corpus.defined_functions():
            validate_function_pipeline(function, PAPER_PIPELINE,
                                       strategy="stepwise", manager=manager)
        assert len(manager) <= 2
        assert manager.evicted > 0
        assert manager.stats()["analyses_evicted"] == manager.evicted

    def test_lru_order_preserves_stepwise_reuse(self, mini_corpus):
        # Stepwise consumes versions in pipeline order, so even the
        # minimal useful bound keeps every interior-checkpoint reuse.
        for function in mini_corpus.defined_functions():
            unbounded = AnalysisManager()
            _, record = validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="stepwise", manager=unbounded)
            if not (record.transformed and record.validated) or record.whole_fallback:
                continue
            bounded = AnalysisManager(max_entries=2)
            validate_function_pipeline(
                function, PAPER_PIPELINE, strategy="stepwise", manager=bounded)
            assert bounded.reused == unbounded.reused

    def test_config_bound_reaches_driver_managers(self, mini_corpus):
        config = replace(DEFAULT_CONFIG, analysis_cache_size=2)
        _, report = llvm_md(mini_corpus, PAPER_PIPELINE, config, strategy="stepwise")
        assert report.analysis_stats["analyses_cached"] <= 2
        _, unbounded_report = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        assert [r.signature() for r in unbounded_report.records] == \
               [r.signature() for r in report.records]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AnalysisManager(max_entries=0)
        with pytest.raises(ValueError):
            replace(DEFAULT_CONFIG, analysis_cache_size=-1)


class TestStepwiseComparisonExperiment:
    def test_rows_and_superset_on_subset(self):
        rows = stepwise_comparison(scale=0.2, benchmarks=["sqlite", "mcf"])
        assert [row["benchmark"] for row in rows] == ["sqlite", "mcf"]
        for row in rows:
            assert row["superset_ok"], row["superset_violations"]
            assert row["stepwise_validated"] >= row["whole_validated"]
            if row["multi_step_functions"]:
                # The shared AnalysisManager must remove recomputation.
                assert row["analyses_reused"] > 0
