"""Gated-SSA support: gate (path-condition) analysis and the monadic memory view."""

from .gates import (
    AndGate,
    CondGate,
    FALSE,
    FalseGate,
    GateAnalysis,
    GateExpr,
    OrGate,
    PathConditionMemo,
    ReachedGate,
    TRUE,
    TrueGate,
    make_and,
    make_or,
)
from .monadic import MemoryEffects, defines_memory, reads_memory

__all__ = [
    "GateAnalysis",
    "PathConditionMemo",
    "GateExpr",
    "TrueGate",
    "FalseGate",
    "CondGate",
    "ReachedGate",
    "AndGate",
    "OrGate",
    "TRUE",
    "FALSE",
    "make_and",
    "make_or",
    "MemoryEffects",
    "defines_memory",
    "reads_memory",
]
