"""Monadic view of memory: which instructions define a new memory state.

The paper makes side effects explicit by interpreting instructions as
commands in a state monad (§3.1): every memory-touching instruction takes
the current abstract memory state and the ones that write produce a new
one.  This module provides the small classification layer the value-graph
builder uses to thread that state:

* :func:`defines_memory` — does executing the instruction produce a new
  memory state (stores, calls that may write)?
* :func:`reads_memory` — does the instruction need the current memory
  state as an input (loads, calls that may read)?
* :class:`MemoryEffects` — per-function summary: which blocks and loops
  contain memory writes.  Used both by the builder (to know where memory
  μ/φ nodes are needed) and by tests.
"""

from __future__ import annotations

from typing import Set

from ..ir.instructions import Call, Instruction, Load, Store
from ..ir.module import BasicBlock, Function


def defines_memory(inst: Instruction) -> bool:
    """Does this instruction produce a new abstract memory state?"""
    if isinstance(inst, Store):
        return True
    if isinstance(inst, Call):
        return inst.may_write_memory()
    return False


def reads_memory(inst: Instruction) -> bool:
    """Does this instruction take the abstract memory state as an input?"""
    if isinstance(inst, Load):
        return True
    if isinstance(inst, Call):
        return inst.may_read_memory()
    return False


class MemoryEffects:
    """Summary of where a function writes memory."""

    def __init__(self, function: Function):
        self.function = function
        self._writing_blocks: Set[int] = set()
        for block in function.blocks:
            if any(defines_memory(inst) for inst in block.instructions):
                self._writing_blocks.add(id(block))

    def block_writes(self, block: BasicBlock) -> bool:
        """Does ``block`` contain at least one memory write?"""
        return id(block) in self._writing_blocks

    def any_writes(self) -> bool:
        """Does the function write memory anywhere?"""
        return bool(self._writing_blocks)


__all__ = ["defines_memory", "reads_memory", "MemoryEffects"]
