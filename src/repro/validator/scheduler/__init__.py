"""The batch-validation scheduling subsystem: plan → execute → settle.

Three layers with one-way dependencies, so each can evolve (or be
replaced — e.g. by a cross-host transport behind the work-stealing
backend) independently:

:mod:`~repro.validator.scheduler.plan`
    *What to run.*  Pure, deterministic work-item generation: optimize,
    dedup by content key, chain-vs-pair amortization, cache consultation
    — producing a :class:`WorkPlan`.
:mod:`~repro.validator.scheduler.executors`
    *How to run it.*  The work-stealing :class:`Executor` — in-process
    or over ``config.concurrency`` workers fed by the process plumbing
    in :mod:`~repro.validator.scheduler.steal` — plus the lazy providers
    the per-function serial driver validates through.  Every worker
    count produces byte-identical record signatures.
:mod:`~repro.validator.scheduler.settle`
    *What it means.*  Strategy runners reassembling
    :class:`~repro.validator.report.FunctionRecord`\\ s (verdicts, blame,
    kept prefixes) from item outcomes, shared by every execution path.
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
    merge_stats,
    remap_function_refs,
    remap_globals,
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
    "remap_globals",
    "remap_function_refs",
]
