"""Pure, deterministic work-item planning for batch validation.

The planning layer answers *what to run*: it optimizes every selected
function of every module, derives the content-keyed validation queries
each function's strategy will consume — whole (original, final) pairs, or
every per-pass adjacent checkpoint pair under ``"stepwise"`` — and
deduplicates them against each other and against the shared
:class:`~repro.validator.cache.ValidationCache` into a :class:`WorkPlan`.
Multi-step stepwise functions are packed into single *chain* work items
when enough of their pairs are uncached to amortize building the
chain-shared value graph (:func:`chain_amortizes`, the same policy the
serial driver's lazy chain provider applies).

Planning performs **no validation**: everything here is a deterministic
function of the input modules, the configuration and the cache contents,
so the :mod:`executor <repro.validator.scheduler.executors>` can run
the same plan in-process or on any number of workers and the
settlement layer (:mod:`repro.validator.scheduler.settle`)
reassembles byte-identical :class:`~repro.validator.report.FunctionRecord`
signatures from the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...analysis.manager import CHECKPOINT_FINGERPRINTS
from ...ir.cloning import clone_function
from ...ir.module import Function, Module
from ...transforms.pass_manager import (PAPER_PIPELINE, PassManager, PassSnapshot,
                                       PassStepMemo, checkpoint_chain,
                                       module_context_digest)
from ..cache import CacheKey, ValidationCache
from ..config import DEFAULT_CONFIG, ValidatorConfig
from ..report import FunctionRecord, ValidationReport
from ..validate import ValidationResult

#: A pair provider: answers one ``(before, after)`` validation query,
#: returning ``(result, was_answered_from_cache)``.  The strategy runners
#: in :mod:`repro.validator.scheduler.settle` are written against this
#: interface, so the lazy serial path and the batch assembly path settle
#: records through identical code.
PairProvider = Callable[[Function, Function], Tuple[ValidationResult, bool]]

#: Identity of one chain work item: the tuple of its adjacent-pair cache
#: keys.  Content-identical chains are planned (and validated) once,
#: exactly like content-identical pairs.
ChainSignature = Tuple[CacheKey, ...]


def chain_amortizes(missing_pairs: int, versions: int) -> bool:
    """Does building the chain beat validating the misses in isolation?

    The chain translates all ``versions`` checkpoints once; the per-pair
    path translates two per uncached pair — so the chain pays off
    roughly when ``2 × misses >= k``.  The serial lazy provider and the
    batch planner share this policy so both drivers choose chain vs
    straggler identically for the same cache state.
    """
    return 2 * missing_pairs >= versions


class FunctionPlan:
    """One function's planned validation work: versions, keys, record."""

    __slots__ = ("function", "record", "versions", "steps", "fingerprints",
                 "pair_keys", "whole_key")

    def __init__(self, function: Function, record: FunctionRecord,
                 versions: List[Function], steps: Optional[List[PassSnapshot]],
                 fingerprints: List[str], pair_keys: List[CacheKey],
                 whole_key: CacheKey) -> None:
        self.function = function
        self.record = record
        self.versions = versions
        self.steps = steps
        #: Content fingerprint of each version, computed once at planning
        #: time and reused by assembly-time key derivation.
        self.fingerprints = fingerprints
        #: Round-1 keys, in validation order (adjacent pairs under
        #: stepwise; the single whole pair otherwise).  The executor's
        #: cancellation reads a function's pipeline-position demand off
        #: this list.
        self.pair_keys = pair_keys
        #: Key of the (original, final) pair — stepwise's whole-query
        #: fallback, executed as the settle round.
        self.whole_key = whole_key

    @property
    def chain_signature(self) -> ChainSignature:
        return tuple(self.pair_keys)


@dataclass
class ModulePlan:
    """One module's share of a batch: its report plus work items."""

    module: Module
    report: ValidationReport
    #: :func:`~repro.transforms.pass_manager.module_context_digest` of
    #: ``module``, computed once and folded into every cache key.
    context: str = ""
    work: List[FunctionPlan] = field(default_factory=list)
    #: Function name -> the version settlement kept, for every planned
    #: function whose kept version is not the input function itself:
    #: what :func:`~repro.validator.scheduler.settle.assemble_result_module`
    #: re-homes.
    kept: Dict[str, Function] = field(default_factory=dict)


@dataclass
class WorkPlan:
    """Everything an executor needs to run one batch, and nothing more.

    The plan is *pure data*: deduplicated content-keyed work items plus
    the per-function plans the settlement layer will replay them into.
    Executors consume ``pending`` / ``pending_chains`` (and, for
    streaming cancellation, the per-function ``pair_keys`` order); they
    never touch planning or settlement logic.
    """

    strategy: str
    config: ValidatorConfig
    modules: List[ModulePlan]
    #: Deduplicated uncached pair queries: key -> (before, after).
    pending: Dict[CacheKey, Tuple[Function, Function]]
    #: Deduplicated chain work items: signature -> (versions, whole key,
    #: version fingerprints).
    pending_chains: Dict[ChainSignature, Tuple[List[Function], CacheKey, List[str]]]
    #: Pipeline steps that ran their pass / were answered from the
    #: pass-step memo while planning.
    pass_steps_run: int = 0
    pass_steps_reused: int = 0

    def function_plans(self) -> Iterator[FunctionPlan]:
        for module_plan in self.modules:
            yield from module_plan.work


def build_plan(
    modules: Sequence[Module],
    passes: Sequence[str] = PAPER_PIPELINE,
    config: Optional[ValidatorConfig] = None,
    cache: Optional[ValidationCache] = None,
    labels: Optional[Sequence[str]] = None,
    strategy: str = "stepwise",
    function_names: Optional[Sequence[Optional[Iterable[str]]]] = None,
    memo: Optional[PassStepMemo] = None,
) -> WorkPlan:
    """Optimize everything and plan the deduplicated validation queries.

    Whole/bisect plan the (original, final) pair; stepwise plans every
    adjacent checkpoint pair — packed as ONE chain work item per
    multi-step function when ``config.chain_graphs`` is on and enough
    pairs are uncached to amortize it (:func:`chain_amortizes`), so a
    worker builds all of that function's checkpoints into one shared
    graph and normalizes it once instead of once per pair.  The
    executor's dispatch queue carries chain items first, then pair
    items, and its streaming cancellation applies to the pair items:
    one worker rides a long chain item while the rest drain the pairs.
    Fingerprints
    are computed once per version and shared by all keys derived from
    them.
    """
    config = config or DEFAULT_CONFIG
    if cache is None:
        cache = ValidationCache()
    chain_mode = strategy == "stepwise" and config.chain_graphs
    module_plans: List[ModulePlan] = []
    pending: Dict[CacheKey, Tuple[Function, Function]] = {}
    pending_chains: Dict[ChainSignature, Tuple[List[Function], CacheKey, List[str]]] = {}
    #: Phase-2 classification input: (pair_keys, pair_versions, versions)
    #: per planned function, in plan order.  Classification is deferred
    #: until every key is known so one ``prefetch`` faults in the whole
    #: batch's entries before any peek.
    classify: List[Tuple[List[CacheKey], List[Tuple[Function, Function]],
                         List[Function]]] = []
    pipeline = PassManager(passes)
    steps_run = steps_reused = 0
    for index, module in enumerate(modules):
        label = labels[index] if labels is not None else module.name
        selected: Optional[set] = None
        if function_names is not None and function_names[index] is not None:
            selected = set(function_names[index])
        report = ValidationReport(label=label)
        work: List[FunctionPlan] = []
        context = module_context_digest(module)
        for function in module.functions.values():
            if function.is_declaration or (selected is not None and function.name not in selected):
                continue
            record = FunctionRecord(name=function.name, strategy=strategy)
            if strategy == "whole":
                optimized = clone_function(function)
                record.transformed_by = pipeline.run_on_function(optimized)
                steps_run += len(record.transformed_by)
                report.add(record)
                if not record.transformed:
                    continue
                steps = None
                versions = [function, optimized]
                fingerprints = [CHECKPOINT_FINGERPRINTS.fingerprint(function),
                                CHECKPOINT_FINGERPRINTS.remember(optimized)]
            else:
                source = CHECKPOINT_FINGERPRINTS.fingerprint(function)
                snapshots = pipeline.run_with_snapshots(function, memo, context,
                                                        source)
                reused = sum(snap.reused for snap in snapshots)
                steps_reused += reused
                steps_run += len(snapshots) - reused
                record.transformed_by = {snap.pass_name: snap.changed
                                         for snap in snapshots}
                report.add(record)
                if not record.transformed:
                    continue
                steps, versions = checkpoint_chain(function, snapshots)
                fingerprints = [source] + [snap.fingerprint() for snap in steps]
            whole_key = cache.key_for(fingerprints[0], fingerprints[-1],
                                      config, context)
            if strategy == "stepwise":
                pair_keys = [cache.key_for(fingerprints[i], fingerprints[i + 1],
                                           config, context)
                             for i in range(len(versions) - 1)]
                pair_versions = list(zip(versions, versions[1:]))
            else:
                pair_keys = [whole_key]
                pair_versions = [(versions[0], versions[-1])]
            classify.append((pair_keys, pair_versions, versions))
            work.append(FunctionPlan(function, record, versions, steps,
                                     fingerprints, pair_keys, whole_key))
        module_plans.append(ModulePlan(module, report, context, work))
    # Phase 2: fault in exactly the keys classification peeks (every
    # adjacent pair; whole fallbacks stay lazy for the settle round), then
    # classify.  Without a store prefetch returns at once.
    cache.prefetch([key for pair_keys, _, _ in classify for key in pair_keys])
    for classify_index, function_plan in enumerate(
            fp for mp in module_plans for fp in mp.work):
        pair_keys, pair_versions, versions = classify[classify_index]
        whole_key = function_plan.whole_key
        if chain_mode and len(pair_keys) >= 2:
            # One packed work item covers every adjacent pair of this
            # function — but only when enough pairs still need
            # validating to amortize it: the chain translates all k
            # versions once while the per-pair path translates two
            # per miss, so with a warm cache and a straggler or two
            # the misses ship as plain pair items instead (and a
            # fully cached chain costs nothing, exactly like the
            # serial path's lazy chain construction).
            missing = [(key, pair)
                       for key, pair in zip(pair_keys, pair_versions)
                       if cache.peek(key) is None]
            if chain_amortizes(len(missing), len(versions)):
                chain_signature = tuple(pair_keys)
                if chain_signature not in pending_chains:
                    pending_chains[chain_signature] = (
                        versions, whole_key, function_plan.fingerprints)
            else:
                for key, (before, after) in missing:
                    if key not in pending:
                        pending[key] = (before, after)
        else:
            for key, (before, after) in zip(pair_keys, pair_versions):
                if cache.peek(key) is None and key not in pending:
                    pending[key] = (before, after)
    return WorkPlan(strategy=strategy, config=config, modules=module_plans,
                    pending=pending, pending_chains=pending_chains,
                    pass_steps_run=steps_run, pass_steps_reused=steps_reused)


@dataclass
class PipelineDiff:
    """What changed between two checkpoint chains of the same function.

    Produced by :func:`diff_plan` and consumed by the incremental
    revalidator (:mod:`repro.validator.watch`): pairs whose endpoints
    both carry fingerprints the previous run already validated are
    *adopted* and settled straight from the cache (their keys are the
    plan's :attr:`FunctionPlan.pair_keys` — a key is a value tuple, so
    it equals the previous run's); only :attr:`dirty_pairs` need any
    graph work.
    """

    #: Content fingerprint of every version of the *new* chain.
    fingerprints: List[str]
    #: Number of leading versions shared (by content) with the old chain.
    common_prefix: int
    #: Pair indices whose both endpoints match the old chain positionally
    #: — their verdicts are adopted from the previous plan/cache.
    unchanged_pairs: List[int]
    #: Pair indices with at least one changed endpoint — the only pairs
    #: that need validation work.
    dirty_pairs: List[int]

    @property
    def fully_unchanged(self) -> bool:
        return not self.dirty_pairs


def diff_plan(old_fingerprints: Sequence[str],
              new_fingerprints: Sequence[str]) -> PipelineDiff:
    """Diff two checkpoint chains into adopted and dirty pair work.

    ``old_fingerprints`` describe the previous run's version chain (the
    original followed by every changed checkpoint — what
    :func:`~repro.transforms.pass_manager.checkpoint_chain` produced,
    fingerprinted through the shared
    :data:`~repro.analysis.manager.CHECKPOINT_FINGERPRINTS` table);
    ``new_fingerprints`` the current run's.  A pair of the new chain is
    *unchanged* when both its endpoints match the old chain at the same
    positions — which covers the longest-common-prefix case (a pure
    pipeline-suffix tweak) and re-convergent tails (a middle pass edit
    whose downstream checkpoints hash identically).  Like
    :func:`build_plan` this performs no validation — it is a pure
    function of the two fingerprint chains.
    """
    new_fingerprints = list(new_fingerprints)
    old_fingerprints = list(old_fingerprints)
    common_prefix = 0
    for old_fp, new_fp in zip(old_fingerprints, new_fingerprints):
        if old_fp != new_fp:
            break
        common_prefix += 1
    unchanged: List[int] = []
    dirty: List[int] = []
    for index in range(len(new_fingerprints) - 1):
        positionally_unchanged = (
            index + 1 < len(old_fingerprints)
            and old_fingerprints[index] == new_fingerprints[index]
            and old_fingerprints[index + 1] == new_fingerprints[index + 1])
        (unchanged if positionally_unchanged else dirty).append(index)
    return PipelineDiff(fingerprints=new_fingerprints,
                        common_prefix=common_prefix, unchanged_pairs=unchanged,
                        dirty_pairs=dirty)


def pending_whole_queries(plan: WorkPlan, cache: ValidationCache
                          ) -> Dict[CacheKey, Tuple[Function, Function]]:
    """The settle round's demand: whole fallbacks of rejected functions.

    Stepwise only — functions whose adjacent-pair walk hits a rejection
    fall back to the whole (original, final) query, the serial strategy's
    superset guarantee.  The demand only becomes known once the pair
    verdicts are in the cache, so executors call this after their pair
    rounds.  (A single-step function's whole pair *is* its only
    adjacent pair, already answered, so it never reappears here.)
    """
    pending_whole: Dict[CacheKey, Tuple[Function, Function]] = {}
    if plan.strategy != "stepwise":
        return pending_whole
    for function_plan in plan.function_plans():
        rejected = False
        for key in function_plan.pair_keys:
            result = cache.peek(key)
            if result is not None and not result.is_success:
                rejected = True
                break
        if rejected and cache.peek(function_plan.whole_key) is None \
                and function_plan.whole_key not in pending_whole:
            pending_whole[function_plan.whole_key] = (
                function_plan.versions[0], function_plan.versions[-1])
    return pending_whole


__all__ = [
    "PairProvider",
    "ChainSignature",
    "FunctionPlan",
    "ModulePlan",
    "PipelineDiff",
    "WorkPlan",
    "build_plan",
    "diff_plan",
    "pending_whole_queries",
    "chain_amortizes",
]
