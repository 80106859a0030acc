"""The LLVM-MD driver: optimize, validate, keep or reject per function.

This is the paper's §2 pseudo-code::

    function llvm-md(var input) {
        output = opt -options input
        for each function f in input {
            extract f from input as fi and output as fo
            if (!validate fi fo) { replace fo by fi in output }
        }
        return output
    }

Our ``opt`` is the pass pipeline from :mod:`repro.transforms`; everything
else is the same: the validator treats the optimizer as a black box and
needs no instrumentation.  On top of the paper's monolithic
(original, fully-optimized) query, :func:`validate_function_pipeline` now
offers three *strategies*:

``"whole"``
    The paper's behavior: one validation of the composed pipeline.  A
    rejection rolls back every optimization and cannot name the pass at
    fault.
``"stepwise"``
    The pass manager checkpoints the function after every pass and each
    *adjacent* checkpoint pair is validated — every equivalence problem is
    only one pass's effect wide.  A rejection blames the failing pass and
    the longest validated prefix of the pipeline is *kept* instead of
    discarding all optimization work.  (Pair problems are not always
    easier than the composition — a later pass can undo an earlier one —
    so a rejected pair falls back to the whole query first; stepwise
    accepts a superset of what whole accepts, by construction.)
``"bisect"``
    Try the whole query first (no extra cost on the accepting fast path);
    on rejection, binary-search the checkpoint list with
    (original, checkpoint) probes to attribute blame to a single pass and
    keep the longest prefix the probes proved.

All strategies can share one :class:`~repro.analysis.manager.AnalysisManager`
so per-version analyses (dominators, loops, gates, ...) are computed once
per checkpoint no matter how many queries consume them, and every strategy
is written against one *pair provider* abstraction — a callable answering
``(before, after) -> (result, was_cached)`` — so the serial driver (which
validates lazily through the :class:`ValidationCache`) and the batch
driver assemble byte-identical per-function verdicts from the same code.

Under ``strategy="stepwise"`` with ``config.chain_graphs`` (the default),
the adjacent-pair queries are answered from ONE *chain-shared* value
graph per function (:func:`~repro.validator.validate.validate_chain`);
the per-pair path remains both the fallback and the parity oracle —
``benchmarks/stepwise_guard.py``'s chain leg enforces identical record
signatures with the flag on vs off.

For corpus-scale traffic, batch validation is orchestrated by the
:mod:`~repro.validator.scheduler` subsystem in three layers:

* **plan** (:func:`~repro.validator.scheduler.plan.build_plan`): pure,
  deterministic work-item generation — every selected function of every
  module is optimized, its queries derived, content-deduplicated and
  checked against the shared cache;
* **execute** (:mod:`~repro.validator.scheduler.executors`): one
  :class:`~repro.validator.scheduler.executors.Executor` — one
  priority-ordered dispatch queue that also cancels the doomed later
  pairs of rejecting functions, drained by ``config.concurrency`` worker
  processes when that is above 1 and in-process otherwise — fills the
  cache with verdicts; a dead worker
  is respawned and its item requeued, and an unrecoverable pool failure
  degrades the rest of the batch to the in-process loop;
* **settle** (:func:`~repro.validator.scheduler.settle.settle_plan`):
  per-function records are reassembled from the cache through the same
  strategy runners the serial path uses, so every worker count produces
  byte-identical :meth:`~repro.validator.report.FunctionRecord.signature`\\ s
  (``benchmarks/stepwise_guard.py``'s backend leg enforces it).

:func:`llvm_md` delegates to the batch driver iff
``config.concurrency > 1``; its lazy per-function path (no pool, no
incremental state) stays as the serial oracle of every parity test.
Incremental revalidation is a long-lived object: a
:class:`~repro.validator.watch.Revalidator` runs the same plan →
execute → settle path at every concurrency, with a pass-step memo and
a cache that outlive the call; unchanged pairs are cache hits, so only
the dirty ones are executed, and each planned chain is diffed against
the previous run's (:func:`~repro.validator.scheduler.plan.diff_plan`)
for the reuse telemetry alone.

With ``config.cache_dir`` set the cache is *persistent*: a SQLite proof
store answers previously proved pairs lazily and new verdicts are
written back as they arrive, so repeated corpus sweeps and CI re-runs
skip everything proved before.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis.manager import AnalysisManager, function_fingerprint
from ..ir.cloning import clone_function, clone_globals_into
from ..ir.module import Function, Module
from ..transforms.pass_manager import (
    PAPER_PIPELINE,
    PassManager,
    checkpoint_chain,
    module_context_digest,
)
from .cache import ValidationCache
from .config import DEFAULT_CONFIG, ValidatorConfig
from .report import FunctionRecord, ValidationReport
from .scheduler import (
    RequestBudget,
    build_plan,
    Executor,
    chain_provider,
    remap_function_refs,
    remap_globals,
    run_bisect,
    run_stepwise,
    run_whole,
    serial_provider,
    settle_plan,
    shard_stats,
)

#: The validation strategies :func:`validate_function_pipeline` implements.
STRATEGIES = ("whole", "stepwise", "bisect")


def _driver_manager(config: ValidatorConfig) -> AnalysisManager:
    """A driver-owned analysis manager honoring the configured LRU bound."""
    return AnalysisManager(max_entries=config.analysis_cache_size or None)


def validate_function_pipeline(
    function: Function,
    passes: Sequence[str] = PAPER_PIPELINE,
    config: Optional[ValidatorConfig] = None,
    skip_unchanged: bool = True,
    cache: Optional[ValidationCache] = None,
    strategy: str = "whole",
    manager: Optional[AnalysisManager] = None,
    context: Optional[str] = None,
) -> Tuple[Function, FunctionRecord]:
    """Optimize one function and validate the result under ``strategy``.

    Returns ``(kept_function, record)``.  ``kept_function`` is the fully
    optimized clone when validation succeeded, the original function when
    everything was rejected, and — under ``"stepwise"``/``"bisect"`` — the
    checkpoint at the end of the longest *validated prefix* of the
    pipeline when only part of it could be proved.  The record carries the
    per-pass verdicts, the blamed pass and the kept-prefix length.

    When ``cache`` is given, previously validated identical pairs
    (monolithic or adjacent-checkpoint) are answered from it; when
    ``manager`` is given (or a snapshot strategy creates its own, bounded
    by ``config.analysis_cache_size``), every distinct function version's
    analyses are computed only once.  This per-function entry point
    always executes lazily in-process; ``config.concurrency`` sizes the
    worker pool of the module/batch drivers.  ``context`` is the
    :func:`~repro.transforms.pass_manager.module_context_digest` of
    ``function``'s module, part of every cache key (computed here when
    omitted; :func:`llvm_md` computes it once per module).
    """
    config = config or DEFAULT_CONFIG
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (known: {STRATEGIES})")
    record = FunctionRecord(name=function.name, strategy=strategy)
    if function.is_declaration:
        return function, record
    if context is None:
        context = module_context_digest(function.parent)

    if strategy == "whole":
        optimized = clone_function(function)
        record.transformed_by = PassManager(passes).run_on_function(optimized)
        if skip_unchanged and not record.transformed:
            return function, record
        provider = serial_provider(config, cache, manager, context)
        kept = run_whole(function, optimized, provider, record)
        if manager is not None:
            record.analysis_stats = manager.stats()
        return kept, record

    snapshots = PassManager(passes).run_with_snapshots(function)
    record.transformed_by = {snap.pass_name: snap.changed for snap in snapshots}
    if skip_unchanged and not record.transformed:
        return function, record

    # The version chain: the original, then one checkpoint per *changed*
    # pass (unchanged passes are identity steps — nothing to validate).
    steps, versions = checkpoint_chain(function, snapshots)
    manager = manager if manager is not None else _driver_manager(config)
    if strategy == "stepwise" and config.chain_graphs and len(steps) >= 2:
        # Chain-shared graph: every checkpoint is built once into one
        # graph and all adjacent pairs are answered from its single
        # normalization (the per-pair provider remains the fallback for
        # the whole-query and for chain construction failures).
        provider = chain_provider(versions, config, cache, manager, record,
                                  context)
    else:
        provider = serial_provider(config, cache, manager, context)
    if not steps:
        # skip_unchanged=False and no pass changed anything: validate the
        # identity pair, for parity with the whole strategy.
        record.result, record.from_cache = provider(function, function)
        record.analysis_stats = manager.stats()
        return function, record
    runner = run_stepwise if strategy == "stepwise" else run_bisect
    kept = runner(function, versions, steps, provider, record)
    record.analysis_stats = manager.stats()
    return kept, record


def llvm_md(
    module: Module,
    passes: Sequence[str] = PAPER_PIPELINE,
    config: Optional[ValidatorConfig] = None,
    label: str = "",
    function_names: Optional[Iterable[str]] = None,
    cache: Optional[ValidationCache] = None,
    strategy: str = "whole",
    manager: Optional[AnalysisManager] = None,
) -> Tuple[Module, ValidationReport]:
    """Run the semantics-preserving optimizer over a module.

    Every defined function is optimized with ``passes``; the optimized
    body is kept only as far as the validator can prove it equivalent to
    the original — entirely under ``strategy="whole"``, up to the longest
    validated pipeline prefix under ``"stepwise"``/``"bisect"``.  Returns
    the resulting module (a new :class:`Module`; the input is not mutated
    and shares no mutable structure — functions *and* globals are cloned)
    and the per-function :class:`ValidationReport`.

    With ``config.concurrency > 1`` the module's validation is
    delegated to :func:`validate_module_batch`'s scheduling subsystem —
    the per-function records are identical to the serial path's by
    construction; ``manager`` is only consulted on the serial path.  With
    ``config.cache_dir`` set and no explicit ``cache``, a persistent
    cache is opened there and saved back after the run.  Callers that
    revalidate the same modules repeatedly hold a
    :class:`~repro.validator.watch.Revalidator` instead.
    """
    config = config or DEFAULT_CONFIG
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (known: {STRATEGIES})")
    if config.concurrency > 1:
        selections = [list(function_names)] if function_names is not None else None
        (result_module, report), = validate_module_batch(
            [module], passes, config, labels=[label or module.name],
            cache=cache, strategy=strategy, function_names=selections)
        return result_module, report

    if cache is None and config.cache_dir is not None:
        cache = ValidationCache(config.cache_dir, max_bytes=config.cache_max_bytes,
                                fault_plan=config.fault_plan)
    if manager is None and strategy != "whole":
        manager = _driver_manager(config)
    report = ValidationReport(label=label or module.name)
    result_module = Module(module.name)
    global_map = clone_globals_into(module, result_module)

    selected = set(function_names) if function_names is not None else None
    context = module_context_digest(module)
    for function in module.functions.values():
        # Every function inserted into the result module is cloned (or a
        # freshly cloned checkpoint) with its global references remapped —
        # also declarations and unselected functions — so the result never
        # shares mutable structure with (or re-parents functions of) the
        # input module.
        if function.is_declaration or (selected is not None and function.name not in selected):
            result_module.add_function(clone_function(function, value_map=global_map))
            continue
        kept, record = validate_function_pipeline(
            function, passes, config, cache=cache, strategy=strategy,
            manager=manager, context=context)
        report.add(record)
        if kept is function:
            result_module.add_function(clone_function(function, value_map=global_map))
        else:
            remap_globals(kept, result_module)
            result_module.add_function(kept)
    remap_function_refs(result_module)
    if cache is not None:
        cache.save_if_dirty()
        report.cache_stats = cache.stats()
    if manager is not None:
        report.analysis_stats = manager.stats()
    return result_module, report


def validate_module_batch(
    modules: Sequence[Module],
    passes: Sequence[str] = PAPER_PIPELINE,
    config: Optional[ValidatorConfig] = None,
    labels: Optional[Sequence[str]] = None,
    cache: Optional[ValidationCache] = None,
    strategy: str = "whole",
    function_names: Optional[Sequence[Optional[Iterable[str]]]] = None,
    budget: Optional[RequestBudget] = None,
) -> List[Tuple[Module, ValidationReport]]:
    """Optimize and validate a batch of modules through one shared cache.

    The batch layer is what lets module-level validation scale to large
    corpora.  It is thin orchestration over the
    :mod:`~repro.validator.scheduler` subsystem:

    * **plan** — every function of every module is optimized first
      (checkpointing each pass under ``strategy="stepwise"``/``"bisect"``)
      and the resulting validation queries — whole (original, optimized)
      pairs, or every per-pass *adjacent checkpoint pair* under stepwise
      — are flattened into one work queue and *deduplicated* by content
      hash; with ``config.chain_graphs`` (the default) a multi-step
      stepwise function ships as ONE packed chain work item when enough
      of its pairs are uncached to amortize it;
    * **execute** — the :class:`~repro.validator.scheduler.executors.Executor`
      validates the distinct items from one priority-ordered queue, over
      a persistent pool of ``config.concurrency`` single-item workers
      (each completion dispatches the next item) when that is above 1
      and in-process, in the same order, otherwise
      (a dead worker is respawned and its item requeued; the rest of the
      batch degrades to in-process if the platform cannot spawn
      processes, a payload cannot be pickled, or a worker raises; a
      streamed rejection cancels the later pairs of its function); under
      stepwise, a settle round fans out the whole-query fallbacks of
      rejected functions;
    * **settle** — worker results are merged into the shared cache and
      per-module reports are assembled from it — records identical to
      what serial per-module :func:`llvm_md` calls would have produced
      (verdicts, blame, kept prefixes, per-pass verdicts), with
      ``from_cache`` marking deduplicated queries and each query counted
      exactly once in the cache's hit/miss totals.

    With ``config.cache_dir`` set and no explicit ``cache``, the cache is
    persistent: previously proved pairs load from disk and the merged
    results are saved back after assembly.  ``function_names`` optionally
    restricts validation per module (one entry per module; ``None``
    validates every defined function), mirroring ``llvm_md``.

    Returns ``[(result_module, report), ...]`` in input order.
    """
    config = config or DEFAULT_CONFIG
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (known: {STRATEGIES})")
    if labels is not None and len(labels) != len(modules):
        raise ValueError("labels must match modules one to one")
    if function_names is not None and len(function_names) != len(modules):
        raise ValueError("function_names must match modules one to one")
    if cache is None:
        cache = ValidationCache(config.cache_dir,
                                max_bytes=config.cache_max_bytes,
                                fault_plan=config.fault_plan)

    plan = build_plan(modules, passes, config, cache, labels=labels,
                      strategy=strategy, function_names=function_names)
    executor = Executor(config.concurrency)
    try:
        execution = executor.execute(plan, cache, budget=budget)
    finally:
        executor.close()
    manager = _driver_manager(config)
    results, inline_validations = settle_plan(plan, cache, execution, manager,
                                              budget=budget)

    cache.save_if_dirty()
    stats = shard_stats(plan, execution, executor, inline_validations, cache,
                        budget)
    analysis_stats = manager.stats()
    for _, report in results:
        report.shard_stats = dict(stats)
        report.analysis_stats = dict(analysis_stats)
        report.cache_stats = cache.stats()
    return results


__all__ = [
    "llvm_md",
    "validate_function_pipeline",
    "validate_module_batch",
    "ValidationCache",
    "function_fingerprint",
    "STRATEGIES",
]
