"""Settlement: reassemble per-function records from work-item outcomes.

The settlement layer answers *what the outcomes mean*: it replays every
:class:`~repro.validator.scheduler.plan.FunctionPlan` through the same
strategy runners the lazy serial driver uses (:func:`run_whole`,
:func:`run_stepwise`, :func:`run_bisect`), reading verdicts back out of
the shared :class:`~repro.validator.cache.ValidationCache` the executor
filled, and rebuilds the result modules.  Because the runners are shared,
the lazy driver and the executor — in-process or pooled — produce
byte-identical
:meth:`~repro.validator.report.FunctionRecord.signature`\\ s by
construction; the executor only decides *which* queries were validated
where (and the provider validates any stragglers the rounds could not
anticipate — bisect probes, chain verdicts censored beyond another
function's consumed prefix — inline).

:func:`settle_chain_results` also lives here: turning a chain item's raw
read-off verdicts into cache-safe ones (censoring unconfirmed rejects
beyond the consumed prefix) is settlement policy, shared by the steal
workers (local and remote) and the in-process scheduling loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...analysis.manager import AnalysisManager, CHECKPOINT_FINGERPRINTS
from ...ir.cloning import clone_function
from ...ir.module import Function, Module
from ...ir.values import GlobalVariable
from ...transforms.pass_manager import PassSnapshot
from ..cache import ValidationCache
from ..config import ValidatorConfig
from ..report import FunctionRecord, ValidationReport
from ..validate import (UNCACHEABLE_REASONS, ChainOutcome, ValidationResult,
                        validate, validate_bounded)
from .budget import RequestBudget
from .plan import FunctionPlan, ModulePlan, PairProvider, WorkPlan

def merge_stats(results: Sequence[ValidationResult]) -> Dict[str, int]:
    """Sum the integer normalization counters of several results."""
    totals: Dict[str, int] = {}
    for result in results:
        for key, value in result.stats.items():
            totals[key] = totals.get(key, 0) + int(value)
    return totals


def run_whole(
    function: Function,
    optimized: Function,
    provider: PairProvider,
    record: FunctionRecord,
) -> Function:
    """The paper's strategy: one query over the composed pipeline."""
    record.result, record.from_cache = provider(function, optimized)
    if record.result.is_success:
        record.kept_prefix = record.changed_steps
        return optimized
    return function


def run_stepwise(
    function: Function,
    versions: List[Function],
    steps: List[PassSnapshot],
    provider: PairProvider,
    record: FunctionRecord,
) -> Function:
    """Validate adjacent checkpoint pairs; keep the longest proved prefix."""
    results: List[ValidationResult] = []
    hits: List[bool] = []
    failed_index: Optional[int] = None
    for index, step in enumerate(steps):
        result, hit = provider(versions[index], versions[index + 1])
        record.pass_verdicts[step.pass_name] = result
        results.append(result)
        hits.append(hit)
        if not result.is_success:
            failed_index = index
            break

    elapsed = sum(result.elapsed for result in results)
    if failed_index is None:
        record.kept_prefix = len(steps)
        record.from_cache = all(hits)
        record.result = ValidationResult(
            function.name, True, "stepwise-equal", elapsed=elapsed,
            graph_nodes=max(result.graph_nodes for result in results),
            stats=merge_stats(results),
        )
        return versions[-1]

    # A checkpoint pair was rejected.  That does not prove the composition
    # invalid (pass i+1 may undo pass i, making the pair *harder* than the
    # whole), so try the whole query before settling for the prefix —
    # this is what makes stepwise accept a superset of whole.  With a
    # single changed step the failing pair *is* the whole pair: reuse its
    # verdict instead of validating the identical query a second time.
    if len(steps) == 1:
        whole_result, whole_hit = results[failed_index], hits[failed_index]
    else:
        whole_result, whole_hit = provider(versions[0], versions[-1])
    if whole_result.is_success:
        record.whole_fallback = True
        record.kept_prefix = len(steps)
        record.from_cache = whole_hit
        record.result = replace(whole_result, elapsed=elapsed + whole_result.elapsed)
        return versions[-1]

    failing = results[failed_index]
    record.blamed_pass = steps[failed_index].pass_name
    record.kept_prefix = failed_index
    record.from_cache = all(hits) and whole_hit
    record.result = ValidationResult(
        function.name, False, failing.reason,
        elapsed=elapsed + whole_result.elapsed,
        graph_nodes=failing.graph_nodes,
        stats=merge_stats(results + [whole_result]),
        detail=(f"pass '{record.blamed_pass}' "
                f"(changed step {failed_index + 1}/{len(steps)}) rejected; "
                f"kept the {failed_index}-step validated prefix\n{failing.detail}"),
    )
    return versions[failed_index]


def run_bisect(
    function: Function,
    versions: List[Function],
    steps: List[PassSnapshot],
    provider: PairProvider,
    record: FunctionRecord,
) -> Function:
    """Whole query first; on rejection, bisect the checkpoints for blame."""
    whole_result, whole_hit = provider(versions[0], versions[-1])
    record.from_cache = whole_hit
    record.pass_verdicts[steps[-1].pass_name] = whole_result
    if whole_result.is_success:
        record.kept_prefix = len(steps)
        record.result = whole_result
        return versions[-1]

    # versions[0] vs itself trivially validates, versions[-1] was just
    # rejected: binary-search for the first checkpoint whose composed
    # effect no longer validates against the original and blame the pass
    # that produced it.  (Like any bisection this assumes prefix verdicts
    # are monotone — true for a persistent miscompilation.)
    probes: List[ValidationResult] = [whole_result]
    lo, hi = 0, len(steps)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        result, _ = provider(versions[0], versions[mid])
        probes.append(result)
        record.pass_verdicts[steps[mid - 1].pass_name] = result
        if result.is_success:
            lo = mid
        else:
            hi = mid

    record.blamed_pass = steps[hi - 1].pass_name
    record.kept_prefix = lo
    record.result = ValidationResult(
        function.name, False, whole_result.reason,
        elapsed=sum(result.elapsed for result in probes),
        graph_nodes=whole_result.graph_nodes,
        stats=merge_stats(probes),
        detail=(f"bisected the rejection to pass '{record.blamed_pass}' "
                f"(changed step {hi}/{len(steps)}); "
                f"kept the {lo}-step validated prefix\n{whole_result.detail}"),
    )
    return versions[lo]


def settle_chain_results(outcome: ChainOutcome, versions: Sequence[Function],
                         config: ValidatorConfig,
                         ) -> Tuple[List[Optional[ValidationResult]],
                                    Optional[ValidationResult]]:
    """Turn raw chain verdicts into cache-safe verdicts.

    Raw accepts are exact and kept, and when the chain's rejections are
    authoritative too (``rejects_trusted``: a natural normalization
    fixpoint, and no rejecting pair holds a store only its isolated pair
    graph could prune) everything is cacheable as-is.  Otherwise —
    normalization cut off by the iteration bound, or the union-scoped
    store pruning missing a prune an isolated pair graph performs — the
    rejects on the *consumed prefix* (up to and including the first pair
    the stepwise walk would stop at) are re-checked with an isolated
    per-pair validation — the verdict the per-pair strategy would
    produce — and rejects beyond the consumed prefix are censored to
    ``None``: the walk never consumes them for this function, and caching
    an unconfirmed reject could poison another function whose walk *does*
    consume that content pair.  The whole (original, final) verdict gets
    the same treatment.

    Returns ``(pair_verdicts, whole_verdict)``.
    """
    if outcome.fallback:
        # Every pair result already is an isolated per-pair verdict; the
        # whole query is left to the executor's settle round.
        return list(outcome.pair_results), None
    if outcome.rejects_trusted:
        return list(outcome.pair_results), outcome.whole_result
    settled: List[Optional[ValidationResult]] = []
    failed = False
    for index, result in enumerate(outcome.pair_results):
        if result.is_success:
            settled.append(result)
            continue
        if failed:
            settled.append(None)
            continue
        rechecked = validate(versions[index], versions[index + 1], config)
        settled.append(rechecked)
        if not rechecked.is_success:
            failed = True
    whole = outcome.whole_result
    if whole is not None and not whole.is_success:
        whole = validate(versions[0], versions[-1], config) if failed else None
    return settled, whole


def remap_globals(function: Function, module: Module) -> None:
    """Re-point a kept optimized body at ``module``'s globals, by name.

    By name, not through the input module's global map: a checkpoint
    taken from a long-lived pass-step memo may reference the globals of
    the earlier run that produced it.
    """
    by_name = module.globals
    for inst in function.instructions():
        for index, operand in enumerate(inst.operands):
            if isinstance(operand, GlobalVariable):
                replacement = by_name.get(operand.name)
                if replacement is not None and replacement is not operand:
                    inst.operands[index] = replacement


def remap_function_refs(result_module: Module) -> None:
    """Re-point call operands at the result module's own function objects.

    Cloned bodies initially share callee :class:`Function` references with
    the input module; rebinding them by name completes the driver's
    no-shared-mutable-structure guarantee (mutating the input module's
    functions can never change the result module's behavior).
    """
    by_name = result_module.functions
    for function in result_module.functions.values():
        for inst in function.instructions():
            for index, operand in enumerate(inst.operands):
                if isinstance(operand, Function):
                    replacement = by_name.get(operand.name)
                    if replacement is not None and replacement is not operand:
                        inst.operands[index] = replacement


def settle_plan(plan: WorkPlan, cache: ValidationCache, execution,
                manager: AnalysisManager,
                budget: Optional[RequestBudget] = None,
                on_record: Optional[Callable[[FunctionRecord], None]] = None,
                ) -> Tuple[List[Tuple[Module, ValidationReport]], int]:
    """Assemble result modules and reports from the executed plan.

    Replays every function plan through the strategy runners against a
    cache-backed provider.  The first consumer of a freshly validated
    pair pays for it (a miss); every further consumption of the same key
    — within a module, across modules, or from an earlier batch / the
    disk backend — is a cache hit, so totals count each query exactly
    once.  Queries the executor could not anticipate (bisect probes,
    chain verdicts censored beyond another function's consumed prefix,
    pairs the steal backend cancelled but another strategy path still
    asks for) validate inline through the bounded analysis ``manager``.

    With a ``budget``, inline validation the budget no longer admits is
    answered with a synthetic :data:`~repro.validator.scheduler.budget.BUDGET_EXHAUSTED`
    rejection — never cached, never counted in the hit/miss ledger — so
    the record's stepwise walk stops there and salvages its validated
    ``kept_prefix``.  Cached verdicts keep answering for free.

    ``on_record`` is called with every record of a module in report
    order — untransformed records included — as soon as it is settled.

    Returns ``(results, inline_validations)`` with ``results`` in input
    module order.
    """
    config = plan.config
    fresh = execution.fresh
    consumed: set = set()
    inline_validations = 0
    # The module being settled's context digest (part of every key).
    context = ""
    # Every version the runners can hand the provider was fingerprinted at
    # planning time; the memo keeps assembly from re-printing/re-hashing
    # per pair (ids stay unambiguous because the plans pin the versions
    # alive).
    fingerprint_memo: Dict[int, str] = {}
    for function_plan in plan.function_plans():
        for version, fingerprint in zip(function_plan.versions,
                                        function_plan.fingerprints):
            fingerprint_memo[id(version)] = fingerprint

    def _fingerprint(function: Function) -> str:
        memoized = fingerprint_memo.get(id(function))
        if memoized is not None:
            return memoized
        return CHECKPOINT_FINGERPRINTS.fingerprint(function)

    def provider(before: Function, after: Function) -> Tuple[ValidationResult, bool]:
        nonlocal inline_validations
        key = cache.key_for(_fingerprint(before), _fingerprint(after), config,
                            context)
        stored = cache.peek(key)
        if stored is None:
            denied = getattr(execution, "denied", {}).get(key)
            if denied is not None:
                # Executed but denied (timeout/quarantine): uncached and
                # unledgered like a budget denial — the walk stops here
                # and the record keeps its validated prefix.
                return replace(denied, function_name=before.name), False
            if budget is not None and budget.exhausted:
                # Synthetic denial: uncached, unledgered — the walk stops
                # here and the record keeps its validated prefix.
                return budget.result(before.name), False
            result = validate_bounded(before, after, config, manager=manager)
            if result.reason in UNCACHEABLE_REASONS:
                # An inline validation can time out too; remember the
                # denial so a second consumer of the same key neither
                # re-runs into the timeout nor touches the ledger.
                getattr(execution, "denied", {})[key] = result
                return result, False
            if budget is not None:
                budget.charge()
            cache.put(key, result)
            cache.misses += 1
            inline_validations += 1
            fresh.add(key)
            consumed.add(key)
            return result, False
        first_use = key in fresh and key not in consumed
        consumed.add(key)
        if first_use:
            cache.misses += 1
            return replace(stored, function_name=before.name), False
        # ``get`` counts the hit and refreshes the entry's LRU recency.
        return cache.get(key, before.name), True

    def settle_function(module_plan: ModulePlan,
                        function_plan: FunctionPlan) -> None:
        chain_stats = execution.chain_stats_by_signature.pop(
            function_plan.chain_signature, None)
        if chain_stats is not None:
            # Attached to the (first) function whose chain item actually
            # ran — the same function whose lazy chain the serial path
            # would have built.
            function_plan.record.chain_stats = chain_stats
        if plan.strategy == "whole":
            kept = run_whole(function_plan.function, function_plan.versions[-1],
                             provider, function_plan.record)
        elif plan.strategy == "stepwise":
            kept = run_stepwise(function_plan.function, function_plan.versions,
                                function_plan.steps, provider,
                                function_plan.record)
        else:
            kept = run_bisect(function_plan.function, function_plan.versions,
                              function_plan.steps, provider,
                              function_plan.record)
        if kept is function_plan.function:
            kept = clone_function(function_plan.function,
                                  value_map=module_plan.global_map)
        else:
            if plan.shared_checkpoints:
                # The memo hands this checkpoint to later runs: adopt a
                # clone, never the checkpoint itself.
                kept = clone_function(kept)
            remap_globals(kept, module_plan.result_module)
        module_plan.result_module.add_function(kept)

    results: List[Tuple[Module, ValidationReport]] = []
    for module_plan in plan.modules:
        context = module_plan.context
        # The report holds every selected function's record in module
        # order; the planned (transformed) ones are settled as reached.
        work = iter(module_plan.work)
        upcoming = next(work, None)
        for record in module_plan.report.records:
            if upcoming is not None and upcoming.record is record:
                settle_function(module_plan, upcoming)
                upcoming = next(work, None)
            if on_record is not None:
                on_record(record)
        remap_function_refs(module_plan.result_module)
        results.append((module_plan.result_module, module_plan.report))
    return results, inline_validations


def shard_stats(plan: WorkPlan, execution, executor, inline_validations: int,
                cache: ValidationCache,
                budget: Optional[RequestBudget] = None) -> Dict[str, object]:
    """The scheduling, budget and proof-store counters of one settled run.

    What both drivers report as ``report.shard_stats``.  Read it after
    the cache's closing save, so the final flush is counted.
    """
    executor_stats = executor.stats()
    pooled = executor_stats["pooled_items"] > 0
    stats: Dict[str, object] = {
        "distinct_pairs": execution.validated_queries,
        "pooled_pairs": executor_stats["pooled_items"],
        "chain_items": len(plan.pending_chains),
        "pass_steps_run": plan.pass_steps_run,
        "pass_steps_reused": plan.pass_steps_reused,
        "inline_validations": inline_validations,
        "workers": plan.config.concurrency if pooled else 0,
        "speculative_pairs_skipped": executor_stats["pairs_skipped"],
        "pool_degraded": executor_stats["pool_degraded"],
        "bytes_dispatched": executor_stats["bytes_dispatched"],
        "workers_respawned": executor_stats["workers_respawned"],
        "pairs_quarantined": executor_stats["pairs_quarantined"],
        "item_retries": executor_stats["item_retries"],
        "pairs_denied": len(execution.denied),
        "remote_workers_joined": executor_stats.get("remote_workers_joined", 0),
        "remote_workers_left": executor_stats.get("remote_workers_left", 0),
        "handshakes_rejected": executor_stats.get("handshakes_rejected", 0),
    }
    if budget is not None:
        stats.update(budget.stats())
    cache_counters = cache.stats()
    for key in ("store_flushes", "store_lazy_loads"):
        stats[key] = cache_counters.get(key, 0)
    return stats


__all__ = [
    "merge_stats",
    "run_whole",
    "run_stepwise",
    "run_bisect",
    "settle_chain_results",
    "settle_plan",
    "shard_stats",
    "remap_globals",
    "remap_function_refs",
]
