"""Pass-step memo: content-keyed pipeline steps shared across revalidations.

A long-lived :class:`~repro.validator.watch.Revalidator` walks every
pipeline through one :class:`~repro.transforms.pass_manager.PassStepMemo`
keyed by (module-context digest, input fingerprint, pass callable).  The
bar is the incremental driver's: every record and every printed result
module must equal a fresh cold ``llvm_md`` run.  The parity tests here
fail on a memo that ignores the module context (a callee losing
``readnone``) or that lets its checkpoints be mutated (settlement adopting
a shared checkpoint into a result module).
"""

from dataclasses import replace

import pytest

from repro.bench.corpus import BENCHMARKS_BY_NAME, PAPER_BENCHMARKS, build_corpus
from repro.ir.printer import print_module
from repro.transforms.pass_manager import (
    PAPER_PIPELINE,
    PassManager,
    PassStepMemo,
    module_context_digest,
)
from repro.validator import (
    DEFAULT_CONFIG,
    Revalidator,
    llvm_md,
    validate_module_batch,
)

#: A dropped pass (the convergent-suffix case) and a suffix swap.
EDITS = (PAPER_PIPELINE[:1] + PAPER_PIPELINE[2:],
         PAPER_PIPELINE[:-2] + (PAPER_PIPELINE[-1], PAPER_PIPELINE[-2]))

#: gvn forwards the stored value past the call to ``@h`` only while ``@h``
#: is ``readnone``; the text of ``@f`` itself does not say which it is.
CALLS = """
declare void @h(i32) {attrs}

define i32 @f(i32 %a, i32* %p) {{
entry:
  store i32 %a, i32* %p
  call void @h(i32 %a)
  %v = load i32, i32* %p
  ret i32 %v
}}
"""

#: gvn folds the redundant add, dse kills the dead store: a multi-step chain
#: whose kept checkpoint references a global.
WITH_GLOBAL = """
@g = global i32 7

define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %a, 1
  store i32 %x, i32* @g
  store i32 %y, i32* @g
  %v = load i32, i32* @g
  %r = add i32 %x, %v
  ret i32 %r
}
"""


def _signatures(report):
    return [record.signature() for record in report.records]


def _cold(module, passes):
    return llvm_md(module, passes, label="cold", strategy="stepwise")


def _assert_matches_cold(result, report, cold_source, passes):
    cold_module, cold_report = _cold(cold_source(), passes)
    assert _signatures(report) == _signatures(cold_report)
    assert print_module(result) == print_module(cold_module)


# -- the memo itself ---------------------------------------------------------

def test_context_digest_ignores_the_module_name_only(parse):
    base = parse(WITH_GLOBAL)
    renamed = parse(WITH_GLOBAL)
    renamed.name = "another-request"
    assert module_context_digest(base) == module_context_digest(renamed)
    for edit in (WITH_GLOBAL.replace("global i32 7", "global i32 8"),
                 WITH_GLOBAL.replace("global i32 7", "constant i32 7"),
                 CALLS.format(attrs="readnone"),
                 WITH_GLOBAL + "\ndeclare void @extra()\n"):
        assert module_context_digest(parse(edit)) != module_context_digest(base)
    readnone = parse(CALLS.format(attrs="readnone"))
    plain = parse(CALLS.format(attrs=""))
    assert module_context_digest(readnone) != module_context_digest(plain)


def test_repeat_walk_runs_no_pass_and_shares_checkpoints(parse):
    memo = PassStepMemo()
    pipeline = PassManager(PAPER_PIPELINE)
    first = pipeline.run_with_snapshots(parse(WITH_GLOBAL).functions["f"], memo)
    again = pipeline.run_with_snapshots(parse(WITH_GLOBAL).functions["f"], memo)
    assert not any(snap.reused for snap in first)
    assert all(snap.reused for snap in again)
    assert [snap.changed for snap in again] == [snap.changed for snap in first]
    for old, new in zip(first, again):
        if new.changed:
            assert new.function is old.function
            assert new.fingerprint() == old.fingerprint()


def test_dropping_a_no_op_pass_converges_onto_the_memo(parse):
    memo = PassStepMemo()
    function = parse(WITH_GLOBAL).functions["f"]
    first = PassManager(PAPER_PIPELINE).run_with_snapshots(function, memo)
    idle = [snap.pass_name for snap in first if not snap.changed]
    assert idle, "the fixture needs a pass that changes nothing"
    dropped = tuple(name for name in PAPER_PIPELINE if name != idle[0])
    edited = PassManager(dropped).run_with_snapshots(function, memo)
    assert all(snap.reused for snap in edited)
    assert edited[-1].function is first[-1].function


def test_cold_walk_matches_an_unmemoized_pipeline(parse):
    function = parse(WITH_GLOBAL).functions["f"]
    snapshots = PassManager(PAPER_PIPELINE).run_with_snapshots(function)
    optimized = function.clone()
    PassManager(PAPER_PIPELINE).run_on_function(optimized)
    from repro.analysis.manager import function_fingerprint
    assert snapshots[-1].fingerprint() == function_fingerprint(optimized)
    assert not any(snap.reused for snap in snapshots)


def test_memo_bound_is_an_lru(parse):
    memo = PassStepMemo(max_entries=2)
    PassManager(PAPER_PIPELINE).run_with_snapshots(
        parse(WITH_GLOBAL).functions["f"], memo)
    assert len(memo) == 2
    assert memo.evicted == len(PAPER_PIPELINE) - 2
    with pytest.raises(ValueError):
        PassStepMemo(max_entries=0)


# -- the drivers ---------------------------------------------------------------

def test_frozen_checkpoints_are_never_mutated():
    # A changing pass freezes its working copy in place as the step's
    # checkpoint; later steps must run on clones of it.  Walk every
    # corpus cold, then through one shared memo (cold, warm and edited),
    # and only afterwards re-print what every snapshot recorded.
    from repro.analysis.manager import function_fingerprint
    from repro.ir.printer import print_function

    pipeline, edited = PassManager(PAPER_PIPELINE), PassManager(EDITS[0])
    shared = PassStepMemo()
    inputs, changed = [], []
    for spec in PAPER_BENCHMARKS:
        module = build_corpus(spec, 0.05)
        context = module_context_digest(module)
        for function in module.defined_functions():
            inputs.append((function, print_function(function)))
            walks = [pipeline.run_with_snapshots(function)]
            walks += [manager.run_with_snapshots(function, shared, context)
                      for manager in (pipeline, pipeline, edited)]
            changed += [snap for walk in walks for snap in walk if snap.changed]
    assert changed and any(snap.reused for snap in changed)
    for snap in changed:
        assert snap.fingerprint() == function_fingerprint(snap.function)
    for function, text in inputs:
        assert print_function(function) == text


def test_cold_batch_reuses_nothing():
    module = build_corpus(BENCHMARKS_BY_NAME["sqlite"], 0.1)
    (_, report), = validate_module_batch([module], PAPER_PIPELINE,
                                         strategy="stepwise")
    defined = len(module.defined_functions())
    assert report.shard_stats["pass_steps_reused"] == 0
    assert report.shard_stats["pass_steps_run"] == defined * len(PAPER_PIPELINE)


def test_warm_repeat_runs_no_pass():
    revalidator = Revalidator(DEFAULT_CONFIG)
    spec = BENCHMARKS_BY_NAME["milc"]
    revalidator.revalidate(build_corpus(spec, 0.1), label="first")
    # A fresh module under another name: only content is keyed.
    module = build_corpus(spec, 0.1)
    module.name = "second"
    _, report = revalidator.revalidate(module, label="second")
    defined = len(module.defined_functions())
    assert report.shard_stats["pass_steps_run"] == 0
    assert report.shard_stats["pass_steps_reused"] == defined * len(PAPER_PIPELINE)
    revalidator.close()


@pytest.mark.parametrize("name", [spec.name for spec in PAPER_BENCHMARKS])
def test_revalidation_across_edits_matches_cold(name):
    spec = BENCHMARKS_BY_NAME[name]
    revalidator = Revalidator(DEFAULT_CONFIG)
    for passes in (PAPER_PIPELINE, EDITS[0], PAPER_PIPELINE, EDITS[1]):
        result, report = revalidator.revalidate(build_corpus(spec, 0.05),
                                                passes, label=name)
        _assert_matches_cold(result, report, lambda: build_corpus(spec, 0.05),
                             passes)
    assert revalidator.pass_memo.evicted == 0
    revalidator.close()


def test_callee_losing_readnone_misses_the_memo(parse):
    passes = ("gvn", "adce")
    revalidator = Revalidator(DEFAULT_CONFIG)
    pure = CALLS.format(attrs="readnone")
    _, first = revalidator.revalidate(parse(pure), passes, label="calls")
    assert first.records[0].transformed
    impure = CALLS.format(attrs="")
    result, report = revalidator.revalidate(parse(impure), passes, label="calls")
    assert report.shard_stats["pass_steps_reused"] == 0
    assert not report.records[0].transformed
    _assert_matches_cold(result, report, lambda: parse(impure), passes)
    revalidator.close()


def test_mutating_a_result_module_changes_nothing(parse, assembly_calls):
    revalidator = Revalidator(DEFAULT_CONFIG)
    # A records-only call builds no module at all.
    nothing, _ = revalidator.revalidate(parse(WITH_GLOBAL), label="m",
                                        assemble=False)
    assert nothing is None and assembly_calls == []
    result, report = revalidator.revalidate(parse(WITH_GLOBAL), label="m")
    # The memo shares its checkpoints, so assembly clones the kept one.
    assert assembly_calls == [(result, True)]
    assert report.records[0].kept_prefix >= 2
    for function in result.defined_functions():
        for block in function.blocks:
            block.name += ".mutated"
            block.instructions.pop(0)
        function.attributes = frozenset({"readnone"})
    result.globals["g"].is_constant = True
    again, report = revalidator.revalidate(parse(WITH_GLOBAL), label="m")
    assert report.shard_stats["pass_steps_run"] == 0
    _assert_matches_cold(again, report, lambda: parse(WITH_GLOBAL),
                         PAPER_PIPELINE)
    assert again.functions["f"] is not result.functions["f"]
    assert [built for built, shared in assembly_calls if shared] == [result,
                                                                     again]
    revalidator.close()


def test_bounded_memos_evict_without_changing_records():
    spec = BENCHMARKS_BY_NAME["sqlite"]
    revalidator = Revalidator(replace(DEFAULT_CONFIG, analysis_cache_size=2))
    for passes in (PAPER_PIPELINE, EDITS[0], PAPER_PIPELINE):
        result, report = revalidator.revalidate(build_corpus(spec, 0.1),
                                                passes, label="bounded")
        _assert_matches_cold(result, report, lambda: build_corpus(spec, 0.1),
                             passes)
    assert revalidator.pass_memo.evicted > 0
    assert len(revalidator.pass_memo) <= 2
    revalidator.close()
