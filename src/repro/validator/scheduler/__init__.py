"""The batch-validation scheduling subsystem: plan → execute → settle.

Three layers with one-way dependencies, so each can evolve (or be
replaced — e.g. by a cross-host transport behind the executor's
pool) independently:

:mod:`~repro.validator.scheduler.plan`
    *What to run.*  Pure, deterministic work-item generation: optimize,
    dedup by content key, chain-vs-pair amortization, cache consultation
    — producing a :class:`WorkPlan`.
:mod:`~repro.validator.scheduler.executors`
    *How to run it.*  The :class:`Executor`'s one dispatch queue — in-process
    or over ``config.concurrency`` workers fed through the TCP pool in
    :mod:`~repro.validator.scheduler.transport` — plus the lazy providers
    the per-function serial driver validates through.  Every worker
    count produces byte-identical record signatures.
:mod:`~repro.validator.scheduler.settle`
    *What it means.*  Strategy runners reassembling
    :class:`~repro.validator.report.FunctionRecord`\\ s (verdicts, blame,
    kept prefixes) from item outcomes, shared by every execution path,
    and the one result-module assembly for callers that read a module.
"""

from .budget import (
    BUDGET_EXHAUSTED,
    RequestBudget,
    admit_work,
    is_budget_result,
)
from .executors import (
    ExecutionOutcome,
    Executor,
    chain_provider,
    serial_provider,
    validate_pair_cached,
)
from .plan import (
    ChainSignature,
    FunctionPlan,
    ModulePlan,
    PairProvider,
    PipelineDiff,
    WorkPlan,
    build_plan,
    chain_amortizes,
    diff_plan,
    pending_whole_queries,
)
from .settle import (
    assemble_result_module,
    merge_stats,
    run_bisect,
    run_stepwise,
    run_whole,
    settle_chain_results,
    settle_plan,
    shard_stats,
)

__all__ = [
    "BUDGET_EXHAUSTED",
    "RequestBudget",
    "admit_work",
    "is_budget_result",
    "PairProvider",
    "ChainSignature",
    "FunctionPlan",
    "ModulePlan",
    "WorkPlan",
    "PipelineDiff",
    "build_plan",
    "diff_plan",
    "pending_whole_queries",
    "chain_amortizes",
    "Executor",
    "ExecutionOutcome",
    "serial_provider",
    "chain_provider",
    "validate_pair_cached",
    "merge_stats",
    "run_whole",
    "run_stepwise",
    "run_bisect",
    "settle_chain_results",
    "settle_plan",
    "shard_stats",
    "assemble_result_module",
]
