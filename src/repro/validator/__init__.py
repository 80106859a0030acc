"""The LLVM-MD translation validator: per-function validation and the driver."""

from .cache import (
    SQLITE_FILE_NAME,
    SQLITE_SCHEMA,
    CacheKey,
    SqliteStore,
)
from .config import (
    DEFAULT_CONFIG,
    GVN_ABLATION_STEPS,
    LICM_ABLATION_STEPS,
    SCCP_ABLATION_STEPS,
    ValidatorConfig,
)
from .driver import (
    STRATEGIES,
    ValidationCache,
    function_fingerprint,
    llvm_md,
    validate_function_pipeline,
    validate_module_batch,
)
from .scheduler import (
    BUDGET_EXHAUSTED,
    Executor,
    PipelineDiff,
    RequestBudget,
    WorkPlan,
    build_plan,
    diff_plan,
    is_budget_result,
    settle_plan,
)
from .report import FunctionRecord, ValidationReport
from .validate import (
    ChainOutcome,
    ValidationResult,
    validate,
    validate_chain,
    validate_chain_delta,
    validate_or_raise,
)
# The watch-mode driver is exported lazily (PEP 562): importing it here
# eagerly would make ``python -m repro.validator.watch`` re-execute the
# module runpy already found in sys.modules.
_WATCH_EXPORTS = ("Revalidator", "watch_source")


def __getattr__(name):
    if name in _WATCH_EXPORTS:
        from . import watch
        return getattr(watch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "validate",
    "validate_chain",
    "validate_or_raise",
    "ValidationResult",
    "ChainOutcome",
    "ValidatorConfig",
    "DEFAULT_CONFIG",
    "GVN_ABLATION_STEPS",
    "SCCP_ABLATION_STEPS",
    "LICM_ABLATION_STEPS",
    "STRATEGIES",
    "Executor",
    "WorkPlan",
    "PipelineDiff",
    "build_plan",
    "diff_plan",
    "settle_plan",
    "BUDGET_EXHAUSTED",
    "RequestBudget",
    "is_budget_result",
    "Revalidator",
    "watch_source",
    "validate_chain_delta",
    "llvm_md",
    "validate_function_pipeline",
    "validate_module_batch",
    "ValidationCache",
    "CacheKey",
    "SQLITE_SCHEMA",
    "SQLITE_FILE_NAME",
    "SqliteStore",
    "function_fingerprint",
    "FunctionRecord",
    "ValidationReport",
]
