"""Incremental revalidation: dirty-suffix planning, subgraph reuse, parity.

The hard correctness bar: every record an incremental revalidation
produces must be ``FunctionRecord.signature()``-identical to the record a
cold run over the same module/pipeline produces.  The tests here check
that bar per mutation kind (suffix swap, pass append, mid-pipeline edit)
on a corpus subset — ``benchmarks/stepwise_guard.py``'s incremental leg
extends the same check to every paper corpus — plus the unit behavior of
the new pieces: the shared fingerprint table, pipeline diffing, pristine
graph cloning/extension, and the delta validator.
"""

import gc
import socket
from dataclasses import replace

import pytest

from repro.analysis.manager import (
    CHECKPOINT_FINGERPRINTS,
    AnalysisManager,
    FingerprintTable,
    function_fingerprint,
)
from repro.bench.corpus import BENCHMARKS_BY_NAME, build_corpus
from repro.ir import parse_function, parse_module
from repro.transforms.pass_manager import PassManager, checkpoint_chain
from repro.validator import (
    BUDGET_EXHAUSTED,
    DEFAULT_CONFIG,
    PipelineDiff,
    RequestBudget,
    Revalidator,
    ValidationCache,
    ValidatorConfig,
    diff_plan,
    llvm_md,
    validate_chain_delta,
    validate_module_batch,
)
from repro.validator.scheduler.remote import spawn_workers
from repro.vgraph.builder import build_function_graph, extend_chain_graph
from repro.vgraph.graph import ValueGraph

PIPE = ("adce", "gvn", "sccp", "licm", "loop-deletion", "loop-unswitch", "dse")
#: The three revalidation mutation kinds: suffix swap, one pass appended,
#: a mid-pipeline edit (a dropped pass re-converges or dirties the tail).
MUTATIONS = {
    "swap": PIPE[:-2] + (PIPE[-1], PIPE[-2]),
    "append": PIPE + ("gvn",),
    "mid-edit": PIPE[:3] + PIPE[4:],
}
#: Three cheap corpora keep the in-tree matrix fast; ``stepwise_guard.py``'s
#: incremental leg runs the same check over all twelve in CI.
CORPORA = ("sqlite", "milc", "libquantum")

#: A function several paper passes actually transform (gvn folds the
#: redundant add, dse kills the dead store), so checkpoint chains have
#: multiple versions.
REDUNDANT = """
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


#: A second transformed function, distinct from ``REDUNDANT``.
G_ONLY = """
define i32 @g(i32 %a, i32* %p) {
entry:
  %x = mul i32 %a, 3
  %y = mul i32 %a, 3
  store i32 %x, i32* %p
  store i32 %y, i32* %p
  %r = add i32 %x, %y
  ret i32 %r
}
"""
#: Two distinct transformed functions, so a one-pair budget runs out
#: before the second chain.
TWO_FUNCS = REDUNDANT + G_ONLY


def _signatures(report):
    return [record.signature() for record in report.records]


_COLD_MEMO = {}


def _cold(spec, passes, scale=0.1):
    memo_key = (spec.name, tuple(passes), scale)
    if memo_key not in _COLD_MEMO:
        module = build_corpus(spec, scale)
        _, report = llvm_md(module, passes, DEFAULT_CONFIG,
                            strategy="stepwise")
        _COLD_MEMO[memo_key] = _signatures(report)
    return _COLD_MEMO[memo_key]


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_incremental_parity_per_mutation(corpus, mutation):
    """Warm revalidation records are signature-identical to cold records."""
    spec = BENCHMARKS_BY_NAME[corpus]
    tweaked = MUTATIONS[mutation]
    revalidator = Revalidator(DEFAULT_CONFIG)
    module = build_corpus(spec, 0.1)
    _, first = revalidator.revalidate(module, PIPE)
    _, second = revalidator.revalidate(module, tweaked)
    assert _signatures(first) == _cold(spec, PIPE)
    assert _signatures(second) == _cold(spec, tweaked)


def test_pure_suffix_change_skips_unchanged_pairs():
    """A suffix tweak adopts every unchanged-prefix pair from the cache."""
    revalidator = Revalidator(DEFAULT_CONFIG)
    module = build_corpus(BENCHMARKS_BY_NAME["sqlite"], 0.1)
    _, first = revalidator.revalidate(module, PIPE)
    assert first.shard_stats["pairs_skipped_unchanged"] == 0
    _, second = revalidator.revalidate(module, MUTATIONS["swap"])
    assert second.shard_stats["pairs_skipped_unchanged"] > 0
    # An identical third run adopts everything and extends nothing.
    _, third = revalidator.revalidate(module, MUTATIONS["swap"])
    assert third.shard_stats["chain_extensions"] == 0
    assert third.shard_stats["pairs_skipped_unchanged"] > 0


def test_context_change_drops_retained_graphs():
    """Graphs retained under one module context never answer for another."""
    spec = BENCHMARKS_BY_NAME["sqlite"]

    def flipped():
        module = build_corpus(spec, 0.1)
        module.functions["ext_effect"].attributes = frozenset({"readonly"})
        return module

    revalidator = Revalidator(DEFAULT_CONFIG)
    revalidator.revalidate(build_corpus(spec, 0.1), PIPE)
    _, second = revalidator.revalidate(flipped(), MUTATIONS["swap"])
    assert second.shard_stats["subgraph_nodes_reused"] == 0
    _, cold = llvm_md(flipped(), MUTATIONS["swap"], DEFAULT_CONFIG,
                      strategy="stepwise")
    assert _signatures(second) == _signatures(cold)


def test_incremental_survives_analysis_manager_eviction():
    """Retained chain state outlives the AnalysisManager's LRU bound."""
    config = replace(DEFAULT_CONFIG, analysis_cache_size=2)
    revalidator = Revalidator(config)
    spec = BENCHMARKS_BY_NAME["milc"]
    module = build_corpus(spec, 0.1)
    _, first = revalidator.revalidate(module, PIPE)
    _, second = revalidator.revalidate(module, MUTATIONS["swap"])
    assert revalidator.manager.stats()["analyses_evicted"] > 0
    cold_config = replace(DEFAULT_CONFIG, analysis_cache_size=2)
    cold_module = build_corpus(spec, 0.1)
    _, cold = llvm_md(cold_module, MUTATIONS["swap"], cold_config,
                      strategy="stepwise")
    assert _signatures(second) == _signatures(cold)


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


# One leg per worker source at two workers.  The ids keep the names these
# legs have always been reported under: "auto-2" is the pool's own
# loopback workers, "steal-2" fleet mode (``steal_listen`` plus one
# spawned worker process).
@pytest.mark.parametrize("fleet", [
    pytest.param(False, id="auto-2"),
    pytest.param(True, id="steal-2"),
])
def test_revalidator_on_pooled_backends(fleet):
    """Pooled revalidations run the full plan and still match cold runs."""
    spec = BENCHMARKS_BY_NAME["sqlite"]
    tweaked = MUTATIONS["swap"]
    config = replace(DEFAULT_CONFIG, concurrency=2)
    workers = []
    if fleet:
        address = f"127.0.0.1:{_free_port()}"
        config = replace(config, steal_listen=address)
        workers = spawn_workers(address, 1, patience=30.0)
    revalidator = Revalidator(config)
    try:
        module = build_corpus(spec, 0.1)
        _, first = revalidator.revalidate(module, PIPE)
        # The cold run's work ran on the pool's workers, not inline at
        # settlement and not degraded to in-process execution.
        assert first.shard_stats["distinct_pairs"] > 0
        assert first.shard_stats["pooled_pairs"] > 0
        _, second = revalidator.revalidate(module, tweaked)
        (_, cold), = validate_module_batch([build_corpus(spec, 0.1)], tweaked,
                                           DEFAULT_CONFIG, strategy="stepwise")
        assert _signatures(second) == _signatures(cold)
        assert second.shard_stats["pairs_skipped_unchanged"] > 0

        # Budget salvage: a denied record keeps exactly its validated prefix.
        _, denied = revalidator.revalidate(
            parse_module(TWO_FUNCS, name="two"), PIPE, label="salvage",
            budget=RequestBudget(max_pairs=1))
        assert denied.shard_stats["budget_exhausted"] == 1
        short = [record for record in denied.records
                 if record.signature()["reason"] == BUDGET_EXHAUSTED]
        assert short
        for record in short:
            verdicts = list(record.pass_verdicts.values())
            prefix = next((index for index, verdict in enumerate(verdicts)
                           if not verdict.is_success), len(verdicts))
            assert record.kept_prefix == prefix
        for report in (first, second, denied):
            assert report.shard_stats["pool_degraded"] == 0
    finally:
        revalidator.close()
        for process in workers:
            process.terminate()
            process.wait(timeout=10)


def test_pooled_revalidator_reports_live_membership():
    """A live pool's worker counters reach shard_stats before close."""
    revalidator = Revalidator(replace(DEFAULT_CONFIG, concurrency=2))
    try:
        module = build_corpus(BENCHMARKS_BY_NAME["sqlite"], 0.1)
        _, report = revalidator.revalidate(module, PIPE)
        assert report.shard_stats["pooled_pairs"] > 0
        # Workers served this run, so at least one joined — the counter
        # must not wait for close() to snapshot it.
        assert report.shard_stats["remote_workers_joined"] >= 1
    finally:
        revalidator.close()
    assert revalidator.executor.stats()["remote_workers_joined"] >= 1


def test_revalidation_hits_refresh_cache_recency():
    """Cache hits at settlement refresh LRU recency, as ``get`` documents."""
    revalidator = Revalidator(DEFAULT_CONFIG)
    try:
        stamps = revalidator.cache._hit_stamp
        revalidator.revalidate(parse_module(REDUNDANT, name="a"), PIPE)
        first = set(stamps)
        revalidator.revalidate(parse_module(G_ONLY, name="b"), PIPE)
        second = set(stamps) - first
        assert first and second
        # Every verdict of "a" is answered from the cache again: each hit
        # must outrank the entries "b" stored in between.
        revalidator.revalidate(parse_module(REDUNDANT, name="a"), PIPE)
        assert min(stamps[key] for key in first) > max(
            stamps[key] for key in second)
    finally:
        revalidator.close()


# -- fingerprint table ----------------------------------------------------

def test_fingerprint_table_remember_and_lookup(parse_one):
    table = FingerprintTable()
    function = parse_one("define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}")
    assert table.get(function) is None
    fingerprint = table.remember(function)
    assert fingerprint == function_fingerprint(function)
    assert table.get(function) == fingerprint
    assert table.fingerprint(function) == fingerprint
    assert len(table) == 1


def test_fingerprint_table_entries_die_with_the_function(parse_one):
    table = FingerprintTable()
    function = parse_one("define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}")
    table.remember(function)
    assert len(table) == 1
    del function
    gc.collect()
    assert len(table) == 0


def test_fingerprint_lookup_does_not_store(parse_one):
    table = FingerprintTable()
    function = parse_one("define i32 @f(i32 %a) {\nentry:\n  ret i32 %a\n}")
    # ``fingerprint`` is the maybe-mutable-caller API: compute, don't pin.
    assert table.fingerprint(function) == function_fingerprint(function)
    assert table.get(function) is None


def test_changed_snapshots_share_the_global_table(parse_one):
    function = parse_one(REDUNDANT)
    snapshots = PassManager(("gvn",)).run_with_snapshots(function)
    changed = [snap for snap in snapshots if snap.changed]
    assert changed
    fingerprint = changed[0].fingerprint()
    assert CHECKPOINT_FINGERPRINTS.get(changed[0].function) == fingerprint


# -- pipeline diffing -----------------------------------------------------

def test_diff_plan_pure_suffix():
    diff = diff_plan(["a", "b", "c", "d"], ["a", "b", "c", "x"])
    assert isinstance(diff, PipelineDiff)
    assert diff.common_prefix == 3
    assert diff.unchanged_pairs == [0, 1]
    assert diff.dirty_pairs == [2]
    assert not diff.fully_unchanged


def test_diff_plan_reconvergent_tail():
    # A middle edit whose downstream checkpoints hash identically leaves
    # the tail pairs adoptable too, not just the common prefix.
    diff = diff_plan(["a", "b", "c", "d"], ["a", "x", "c", "d"])
    assert diff.unchanged_pairs == [2]
    assert diff.dirty_pairs == [0, 1]


def test_diff_plan_cold_everything_dirty():
    diff = diff_plan([], ["a", "b", "c"])
    assert diff.common_prefix == 0
    assert diff.unchanged_pairs == []
    assert diff.dirty_pairs == [0, 1]


# -- pristine graph clone + extension -------------------------------------

def _chain(function, passes=PIPE):
    snapshots = PassManager(passes).run_with_snapshots(function)
    steps, versions = checkpoint_chain(function, snapshots)
    return steps, versions


def test_value_graph_restricted_clone_drops_unreachable(parse_one):
    graph = ValueGraph()
    manager = AnalysisManager()
    keep = build_function_graph(graph, parse_one(
        "define i32 @keep(i32 %a) {\nentry:\n  %r = add i32 %a, 1\n  ret i32 %r\n}"),
        manager)
    build_function_graph(graph, parse_one(
        "define i32 @drop(i32 %a) {\nentry:\n  %r = mul i32 %a, 7\n  ret i32 %r\n}"),
        manager)
    restricted = graph.clone(roots=keep.roots())
    assert restricted.live_node_count() < graph.live_node_count()
    assert set(restricted.reachable(keep.roots())) == set(
        graph.reachable(keep.roots()))


def test_restricted_clone_requires_merge_free_graph(parse_one):
    graph = ValueGraph()
    summary = build_function_graph(graph, parse_one(
        "define i32 @f(i32 %a) {\nentry:\n  %r = add i32 %a, 1\n  ret i32 %r\n}"),
        AnalysisManager())
    graph.redirect(graph.const(1), graph.const(2))
    with pytest.raises(ValueError, match="merge-free"):
        graph.clone(roots=summary.roots())


def test_extend_chain_graph_reuses_unchanged_versions(parse_one):
    function = parse_one(REDUNDANT)
    steps, versions = _chain(function)
    assert len(versions) >= 2
    fingerprints = [CHECKPOINT_FINGERPRINTS.fingerprint(function)]
    fingerprints += [snap.fingerprint() for snap in steps]
    graph = ValueGraph()
    manager = AnalysisManager()
    summaries, reused, built = extend_chain_graph(graph, {}, versions,
                                                  manager, fingerprints)
    assert built == graph.next_id and reused == 0
    # Re-extending with every fingerprint retained builds nothing.
    retained = dict(zip(fingerprints, summaries))
    again, reused2, built2 = extend_chain_graph(graph, retained, versions,
                                                manager, fingerprints)
    assert built2 == 0 and reused2 == 0
    assert [s.roots() for s in again] == [s.roots() for s in summaries]


def test_validate_chain_delta_matches_isolated_accepts(parse_one):
    function = parse_one(REDUNDANT)
    steps, versions = _chain(function)
    assert len(versions) >= 2
    fingerprints = [CHECKPOINT_FINGERPRINTS.fingerprint(function)]
    fingerprints += [snap.fingerprint() for snap in steps]
    graph = ValueGraph()
    manager = AnalysisManager()
    summaries, reused, built = extend_chain_graph(graph, {}, versions,
                                                  manager, fingerprints)
    dirty = list(range(len(versions) - 1))
    outcome = validate_chain_delta(graph, summaries, dirty, DEFAULT_CONFIG,
                                   nodes_built=built, nodes_reused=reused)
    assert outcome is not None
    verdicts, chain_stats = outcome
    assert set(verdicts) == set(dirty)
    assert all(result.is_success for result in verdicts.values())
    assert chain_stats["chain_pairs"] == len(dirty)


def test_validate_chain_delta_rejects_empty_dirty_set(parse_one):
    from repro.errors import ReproError
    function = parse_one(REDUNDANT)
    steps, versions = _chain(function)
    graph = ValueGraph()
    summaries, reused, built = extend_chain_graph(graph, {}, versions,
                                                  AnalysisManager())
    with pytest.raises(ReproError):
        validate_chain_delta(graph, summaries, [], DEFAULT_CONFIG)


# -- watch-mode CLI -------------------------------------------------------

def test_watch_cli_once_with_suffix_tweak(tmp_path, capsys):
    from repro.validator.watch import main
    status = main(["corpus:lbm", "--scale", "0.1", "--once",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--then-passes", *MUTATIONS["swap"],
                   "--min-skipped", "1"])
    out = capsys.readouterr().out
    assert status == 0
    assert "pairs_skipped_unchanged" in out


def test_watch_cli_min_hit_rate_failure(capsys):
    from repro.validator.watch import main
    # A cold in-memory run can't hit the cache: the smoke gate must trip.
    status = main(["corpus:lbm", "--scale", "0.1", "--once",
                   "--min-hit-rate", "0.99"])
    assert status == 1
    assert "FAIL" in capsys.readouterr().out
