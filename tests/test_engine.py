"""Tests for the incremental (worklist) normalization engine and batch validation.

Covers the four layers of the engine refactor:

* graph layer — reverse use-edges, merge notifications, incremental
  hash-consing;
* rule layer — the ``@rule`` decorator registry and the kind-dispatch index;
* normalizer layer — worklist engine verdict parity with the full-scan
  baseline, at strictly less rule-application work, plus the stats counters;
* validator layer — ``validate_module_batch``, the content-addressed
  validation cache and the report plumbing.
"""

import pytest

from repro.analysis.manager import CHECKPOINT_FINGERPRINTS
from repro.bench import generate_module
from repro.bench.corpus import small_test_corpus
from repro.ir import clone_function, parse_function
from repro.transforms import PAPER_PIPELINE, get_pass
from repro.validator import (
    STRATEGIES,
    ValidationCache,
    ValidatorConfig,
    function_fingerprint,
    llvm_md,
    validate,
    validate_module_batch,
)
from repro.vgraph import ValueGraph, build_rule_index, Normalizer
from repro.vgraph.rules import RULE_GROUPS, RULE_REGISTRY


class TestGraphParents:
    def test_make_records_parents(self):
        graph = ValueGraph()
        a, b = graph.const(1), graph.const(2)
        node = graph.make("binop", "add", [a, b])
        assert node in graph.parents(a)
        assert node in graph.parents(b)

    def test_set_args_records_parents(self):
        graph = ValueGraph()
        mu = graph.make_mu()
        zero = graph.const(0)
        inc = graph.make("binop", "add", [mu, graph.const(1)])
        graph.set_args(mu, [zero, inc])
        assert mu in graph.parents(zero)
        assert mu in graph.parents(inc)

    def test_redirect_migrates_parents_and_notifies(self):
        graph = ValueGraph()
        a, b = graph.const(1), graph.const(2)
        node = graph.make("binop", "add", [a, b])
        user = graph.make("binop", "mul", [node, a])
        events = []
        graph.add_listener(lambda old, new, stale: events.append((old, new, frozenset(stale))))
        replacement = graph.const(3)
        assert graph.redirect(node, replacement)
        assert events and events[0][0] == node and events[0][1] == graph.resolve(replacement)
        # The stale parents are exactly the nodes whose keys went stale.
        assert user in events[0][2]
        # Parent edges follow the merge: `user` is now a parent of the target.
        assert user in graph.parents(replacement)
        graph.remove_listener(graph._listeners[0])

    def test_incremental_sharing_matches_full_scan(self):
        def build():
            graph = ValueGraph()
            p = graph.make("param", 0)
            left = graph.make("binop", "add", [p, graph.const(1)])
            right = graph.make("binop", "add", [p, graph.const(2)])
            top_left = graph.make("binop", "mul", [left, left])
            top_right = graph.make("binop", "mul", [right, right])
            return graph, left, right, top_left, top_right

        graph, left, right, top_left, top_right = build()
        # Redirecting const(2) onto const(1) makes `right` a duplicate of
        # `left`, which in turn makes `top_right` a duplicate of `top_left`.
        graph.redirect(graph.const(2), graph.const(1))
        merges = graph.maximize_sharing_incremental(graph.parents(graph.const(1)))
        assert merges >= 2
        assert graph.same(left, right)
        assert graph.same(top_left, top_right)

        full_graph, f_left, f_right, f_top_left, f_top_right = build()
        full_graph.redirect(full_graph.const(2), full_graph.const(1))
        full_graph.maximize_sharing()
        assert full_graph.same(f_left, f_right) and full_graph.same(f_top_left, f_top_right)


class TestRuleIndex:
    def test_every_rule_is_registered_with_kinds(self):
        assert len(RULE_REGISTRY) == sum(len(rules) for rules in RULE_GROUPS.values())
        for registered in RULE_REGISTRY:
            assert registered.kinds, registered.__name__
            assert registered.group in RULE_GROUPS

    def test_index_covers_exactly_the_declared_kinds(self):
        index = build_rule_index(tuple(RULE_GROUPS))
        declared = {kind for fn in RULE_REGISTRY for kind in fn.kinds}
        assert set(index) == declared
        # Rules keep their rules_for order within each kind bucket.
        from repro.vgraph.rules import rules_for

        flat = rules_for(tuple(RULE_GROUPS))
        for kind, rules in index.items():
            positions = [flat.index(rule) for rule in rules]
            assert positions == sorted(positions), kind

    def test_index_respects_group_selection(self):
        index = build_rule_index(("phi",))
        assert set(index) == {"phi"}
        assert build_rule_index(()) == {}
        with pytest.raises(KeyError):
            build_rule_index(("nonsense",))


class TestEngineParity:
    """The worklist engine must reproduce the full-scan verdicts exactly."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return small_test_corpus(functions=6, seed=23)

    def test_single_pass_verdicts_agree(self, corpus):
        for pass_name in PAPER_PIPELINE:
            for fn in corpus.defined_functions():
                optimized = clone_function(fn)
                if not get_pass(pass_name)(optimized):
                    continue
                fullscan = validate(fn, optimized, ValidatorConfig(engine="fullscan"))
                worklist = validate(fn, optimized, ValidatorConfig(engine="worklist"))
                assert fullscan.is_success == worklist.is_success, (pass_name, fn.name)

    def test_ablation_verdicts_agree(self, corpus):
        for groups in ((), ("phi",), ("phi", "constfold", "boolean")):
            for fn in corpus.defined_functions():
                optimized = clone_function(fn)
                if not get_pass("gvn")(optimized):
                    continue
                fullscan = validate(fn, optimized,
                                    ValidatorConfig(rule_groups=groups, engine="fullscan"))
                worklist = validate(fn, optimized,
                                    ValidatorConfig(rule_groups=groups, engine="worklist"))
                assert fullscan.is_success == worklist.is_success, (groups, fn.name)

    def test_worklist_does_strictly_less_rule_work(self, corpus):
        fullscan_total = worklist_total = 0
        for fn in corpus.defined_functions():
            optimized = clone_function(fn)
            if not any(get_pass(name)(optimized) for name in ("gvn",)):
                continue
            fullscan = validate(fn, optimized, ValidatorConfig(engine="fullscan"))
            worklist = validate(fn, optimized, ValidatorConfig(engine="worklist"))
            fullscan_total += fullscan.stats.get("rule_invocations", 0)
            worklist_total += worklist.stats.get("rule_invocations", 0)
        assert fullscan_total > 0
        assert worklist_total < fullscan_total

    def test_worklist_stats_surfaced(self, loop_source):
        fn = parse_function(loop_source)
        optimized = clone_function(fn)
        assert get_pass("licm")(optimized)
        result = validate(fn, optimized, ValidatorConfig(engine="worklist"))
        assert result.is_success
        for key in ("worklist_pushes", "index_hits", "rule_invocations"):
            assert key in result.stats
        assert result.stats["worklist_pushes"] > 0
        assert result.stats["index_hits"] > 0

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            ValidatorConfig(engine="bogus")
        with pytest.raises(ValueError):
            Normalizer(ValueGraph(), engine="bogus")


class TestProportionalPasses:
    """Invariants that let the worklist engine skip whole-graph rescans."""

    def test_boolean_memo_dropped_on_merge(self):
        from repro.vgraph.rules import rule_bool_connectives

        graph = ValueGraph()
        a, b = graph.make("param", 0), graph.make("param", 1)
        cond = graph.make("icmp", "slt", [a, b])
        phi = graph.phi([(cond, graph.const(1, "i1")),
                         (graph.not_(cond), graph.make("param", 2))])
        conjunction = graph.make("binop", "and", [phi, graph.true()])
        # A φ is not known to be boolean, so the rule declines — and the
        # graph's memo now records that classification.
        assert rule_bool_connectives(graph, graph.node(conjunction)) is None
        assert graph.boolean_memo.get(phi) is False
        other = graph.make("icmp", "eq", [a, b])
        assert graph.redirect(phi, other)
        assert not graph.boolean_memo
        assert rule_bool_connectives(graph, graph.node(conjunction)) == other

    def test_full_sharing_finds_nothing_reachable_after_worklist(self):
        # Incremental sharing in every round must leave the goal region at
        # the hash-consing fixpoint the full scan would reach: on every
        # chain graph of the twelve corpora, a full scan afterwards merges
        # no node reachable from the goal roots.
        import sys

        from repro.bench.corpus import PAPER_BENCHMARKS, build_corpus
        from repro.transforms import PassManager, checkpoint_chain
        from repro.validator import DEFAULT_CONFIG
        from repro.vgraph.builder import build_chain_graph

        checked = 0
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, DEFAULT_CONFIG.recursion_limit))
        try:
            for spec in PAPER_BENCHMARKS:
                for function in build_corpus(spec, 0.05).defined_functions():
                    snapshots = PassManager(PAPER_PIPELINE).run_with_snapshots(function)
                    _, versions = checkpoint_chain(function, snapshots)
                    if len(versions) < 2:
                        continue
                    graph, summaries = build_chain_graph(versions)
                    ends = list(zip(summaries, summaries[1:]))
                    if len(summaries) > 2:
                        ends.append((summaries[0], summaries[-1]))
                    goals = [goal for left, right in ends
                             for goal in ((left.result, right.result),
                                          (left.memory, right.memory))]
                    Normalizer(graph).normalize_until_equal(goals)
                    roots = [node for goal in goals for node in goal
                             if node is not None]
                    reachable = graph.reachable(roots)
                    # The invariant that makes incremental sharing exact:
                    # the cons table maps every reachable non-μ node's
                    # current key to that node.
                    for node_id in reachable:
                        node = graph.node(node_id)
                        if node.kind != "mu":
                            key = node.key(tuple(graph.resolve_args(node)))
                            assert graph.resolve(graph._table[key]) == node_id
                    graph.maximize_sharing()
                    assert all(graph.resolve(node) == node for node in reachable), \
                        (spec.name, function.name)
                    checked += 1
        finally:
            sys.setrecursionlimit(old_limit)
        assert checked > 12

    def test_tied_phi_branches_sort_as_full_key(self):
        import random

        graph = ValueGraph()
        params = [graph.make("param", index) for index in range(4)]
        leaves = params + [graph.make("binop", "add", [x, y])
                           for x in params for y in params]
        normalizer = Normalizer(graph)

        def full_key(branch):
            condition, value = branch
            return (signatures.get(graph.resolve(condition), 0),
                    signatures.get(graph.resolve(value), 0),
                    graph.format_node(condition, max_depth=3),
                    graph.format_node(value, max_depth=3))

        rng = random.Random(5)
        for _ in range(200):
            # Few distinct signature values force ties between branches
            # whose renderings differ.
            signatures = {node: rng.randrange(3) for node in leaves}
            branches = [(rng.choice(leaves), rng.choice(leaves))
                        for _ in range(rng.randrange(2, 7))]
            assert normalizer._ordered_branches(branches, signatures) == \
                sorted(branches, key=full_key)


class TestNormalizeStatsCrediting:
    """Regression: `normalize()` must credit cycle/partition merges."""

    def _two_equal_cycles(self):
        graph = ValueGraph()
        zero, one = graph.const(0), graph.const(1)
        mu1 = graph.make_mu()
        graph.set_args(mu1, [zero, graph.make("binop", "add", [mu1, one])])
        mu2 = graph.make_mu()
        graph.set_args(mu2, [zero, graph.make("binop", "add", [mu2, one])])
        return graph, mu1, mu2

    @pytest.mark.parametrize("engine", ["fullscan", "worklist"])
    def test_cycle_merges_credited(self, engine):
        graph, mu1, mu2 = self._two_equal_cycles()
        stats = Normalizer(graph, matcher="simple", engine=engine).normalize([mu1, mu2])
        assert graph.same(mu1, mu2)
        assert stats.cycle_merges > 0

    @pytest.mark.parametrize("engine", ["fullscan", "worklist"])
    def test_partition_merges_credited(self, engine):
        graph, mu1, mu2 = self._two_equal_cycles()
        stats = Normalizer(graph, matcher="partition", engine=engine).normalize([mu1, mu2])
        assert graph.same(mu1, mu2)
        assert stats.partition_merges > 0


class TestPruneUnobservableStores:
    """Edge cases of the dead-local-store pruning (graph level)."""

    def _normalize(self, graph, roots):
        # Store pruning runs in the goal-directed loop (like the seed's
        # normalize_until_equal); an unmatchable goal pair drives the loop
        # to its rewrite fixpoint over the given roots.
        normalizer = Normalizer(graph, rule_groups=("loadstore",))
        normalizer.normalize_until_equal([(root, None) for root in roots])

    def test_store_to_dead_alloca_pruned(self):
        graph = ValueGraph()
        p = graph.make("alloca", "p")
        mem0 = graph.make("mem0")
        store = graph.make("store", None, [graph.make("param", 0), p, mem0])
        self._normalize(graph, [store])
        assert graph.same(store, mem0)

    def test_escape_via_stored_pointer_keeps_store(self):
        # Storing the alloca's *address* somewhere publishes it: a later
        # load through other memory could observe writes to it.
        graph = ValueGraph()
        p = graph.make("alloca", "p")
        q = graph.make("param", 0)
        mem0 = graph.make("mem0")
        publish = graph.make("store", None, [p, q, mem0])  # *q = p (p escapes)
        store = graph.make("store", None, [graph.const(42), p, publish])
        self._normalize(graph, [store])
        assert not graph.same(store, publish)

    def test_gep_chained_base_pruned(self):
        # A store through a GEP chain rooted at a dead alloca is still dead.
        graph = ValueGraph()
        arr = graph.make("alloca", "arr")
        inner = graph.make("gep", None, [arr, graph.const(1)])
        outer = graph.make("gep", None, [inner, graph.const(2)])
        mem0 = graph.make("mem0")
        store = graph.make("store", None, [graph.const(7), outer, mem0])
        self._normalize(graph, [store])
        assert graph.same(store, mem0)

    def test_gep_load_from_same_allocation_keeps_store(self):
        # The load reads a *different offset* of the same allocation, so the
        # base is observable and the store must survive.
        graph = ValueGraph()
        arr = graph.make("alloca", "arr")
        mem0 = graph.make("mem0")
        store_ptr = graph.make("gep", None, [arr, graph.const(1)])
        store = graph.make("store", None, [graph.const(7), store_ptr, mem0])
        load_ptr = graph.make("gep", None, [arr, graph.make("param", 0)])
        load = graph.make("load", None, [load_ptr, store])
        self._normalize(graph, [load])
        memory = graph.node(graph.resolve(load)).args[1]
        assert graph.same(memory, store)
        assert not graph.same(store, mem0)

    def test_aliasing_load_keeps_store(self):
        graph = ValueGraph()
        p = graph.make("alloca", "p")
        mem0 = graph.make("mem0")
        store = graph.make("store", None, [graph.make("param", 0), p, mem0])
        load = graph.make("load", None, [p, store])
        self._normalize(graph, [load])
        # The load folds to the stored value (must-alias), but the store in
        # the memory chain is only removable because of that fold — the
        # *pruning* itself must not have fired while the load was live.
        assert graph.same(load, graph.make("param", 0))

    def test_escape_via_call_keeps_store(self):
        graph = ValueGraph()
        p = graph.make("alloca", "p")
        mem0 = graph.make("mem0")
        call = graph.make("call", ("ext", True, True), [p, mem0])
        callmem = graph.make("callmem", None, [call])
        store = graph.make("store", None, [graph.const(1), p, callmem])
        self._normalize(graph, [store])
        assert not graph.same(store, callmem)


class TestBatchValidation:
    def _modules(self):
        # seed 7 twice: the second module is a content-identical clone.
        return [generate_module(functions=3, seed=7),
                generate_module(functions=3, seed=7),
                generate_module(functions=3, seed=13)]

    def test_batch_matches_llvm_md_verdicts(self):
        modules = self._modules()
        batch = validate_module_batch(modules)
        for module, (_, batch_report) in zip(modules, batch):
            _, reference = llvm_md(module)
            assert {r.name: r.validated for r in reference.records} == \
                   {r.name: r.validated for r in batch_report.records}

    def test_batch_cache_hits_reported(self):
        modules = self._modules()
        cache = ValidationCache()
        batch = validate_module_batch(modules, cache=cache)
        duplicate_report = batch[1][1]
        # Every transformed function of the duplicate module is a cache hit.
        assert duplicate_report.cache_hits == duplicate_report.transformed_functions
        assert duplicate_report.cache_hits > 0
        assert duplicate_report.cache_stats is not None
        assert duplicate_report.cache_stats["hits"] >= duplicate_report.cache_hits
        totals = duplicate_report.engine_totals()
        assert totals["cache_hits"] == duplicate_report.cache_hits
        assert cache.hits > 0 and cache.misses > 0

    def test_batch_reuses_cache_across_calls(self):
        cache = ValidationCache()
        module = generate_module(functions=3, seed=7)
        validate_module_batch([module], cache=cache)
        misses_before = cache.misses
        (_, report), = validate_module_batch([generate_module(functions=3, seed=7)], cache=cache)
        assert cache.misses == misses_before  # answered entirely from cache
        assert report.cache_hits == report.transformed_functions

    def test_batch_concurrency_smoke(self):
        modules = self._modules()
        serial = validate_module_batch(modules)
        parallel = validate_module_batch(modules, config=ValidatorConfig(concurrency=2))
        assert [{r.name: r.validated for r in rep.records} for _, rep in serial] == \
               [{r.name: r.validated for r in rep.records} for _, rep in parallel]

    def test_fingerprint_stable_across_clones(self):
        module = generate_module(functions=1, seed=3)
        fn = module.defined_functions()[0]
        assert function_fingerprint(fn) == function_fingerprint(clone_function(fn))

    def test_batch_result_modules_are_isolated(self, assembly_calls):
        for strategy in STRATEGIES:
            modules = [generate_module(functions=3, seed=7),
                       generate_module(functions=2, seed=8)]
            assembly_calls.clear()
            results = validate_module_batch(modules, strategy=strategy)
            # One assembly per module, after settlement, in input order.
            assert [built for built, _ in assembly_calls] == [
                result_module for result_module, _ in results], strategy
            for module, (result_module, _) in zip(modules, results):
                assert set(result_module.functions) == set(module.functions)
                originals = {id(value) for value in (
                    *module.functions.values(), *module.globals.values())}
                for name, function in module.functions.items():
                    assert result_module.functions[name] is not function
                    # The input module's functions were not re-parented.
                    assert function.parent is module
                for function in result_module.functions.values():
                    assert function.parent is result_module
                    # An adopted kept version is the caller's to mutate now.
                    assert CHECKPOINT_FINGERPRINTS.get(function) is None
                    for inst in function.instructions():
                        assert not any(id(operand) in originals
                                       for operand in inst.operands), strategy


class TestDriverCloningUniform:
    """llvm_md must never insert the input module's own Function objects."""

    def test_declarations_and_unselected_functions_cloned(self):
        module = generate_module(functions=2, seed=5)
        declared = [f.name for f in module.functions.values() if f.is_declaration]
        defined = [f.name for f in module.functions.values() if not f.is_declaration]
        assert declared, "generator should declare external functions"
        result, _ = llvm_md(module, PAPER_PIPELINE, function_names=[defined[0]])
        for name, function in module.functions.items():
            assert result.functions[name] is not function, name
            assert function.parent is module, name
