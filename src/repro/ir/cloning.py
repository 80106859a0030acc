"""Deep copying of functions and modules.

Cloning is used by the validation driver (keep the original function while
the optimizer mutates a copy), by the loop-unswitching pass (duplicate a
loop body) and by tests that want to compare a pass's output against a
pristine input.  Both whole functions and loop bodies go through
:func:`clone_blocks`, which copies each instruction's slots without
re-running its constructor and maps every operand once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .instructions import Instruction
from .module import BasicBlock, Function, Module
from .values import GlobalVariable, Value

#: Instruction class -> the slots its own subclasses add beyond
#: :class:`Instruction`'s (``ICmp.predicate``, ``Alloca.allocated_type``,
#: ...), filled on first use.
_EXTRA_SLOTS: Dict[type, Tuple[str, ...]] = {}


def _copy(inst: Instruction, parent: BasicBlock) -> Instruction:
    """A copy of ``inst``'s slots in ``parent``; operands are the caller's job.

    No constructor runs: the result type, opcode and any subclass slot
    are copied as they are, so the copy prints exactly like the original.
    """
    cls = type(inst)
    extra = _EXTRA_SLOTS.get(cls)
    if extra is None:
        extra = _EXTRA_SLOTS[cls] = tuple(
            slot for klass in cls.__mro__[:cls.__mro__.index(Instruction)]
            for slot in klass.__dict__.get("__slots__", ()))
    new = cls.__new__(cls)
    new.type = inst.type
    new.name = inst.name
    new.opcode = inst.opcode
    new.parent = parent
    for slot in extra:
        setattr(new, slot, getattr(inst, slot))
    return new


def clone_blocks(blocks: Sequence[BasicBlock], new_blocks: Sequence[BasicBlock],
                 value_map: Dict[Value, Value]) -> None:
    """Clone the instructions of ``blocks`` into ``new_blocks``, pairwise.

    ``value_map`` must already map every block to its new block (and any
    other seed, such as arguments); it gains every cloned instruction.
    All copies are registered before any operand is mapped, so forward
    references — φ incoming values on back edges, or a use laid out
    before its definition — resolve in the single mapping walk.
    Operands the map does not hold (constants, globals, declarations,
    values defined outside the cloned blocks) are shared with the
    original.
    """
    copies = []
    for block, new_block in zip(blocks, new_blocks):
        instructions = new_block.instructions
        for inst in block.instructions:
            new = _copy(inst, new_block)
            value_map[inst] = new
            instructions.append(new)
            copies.append((inst, new))
    get = value_map.get
    for inst, new in copies:
        new.operands = [get(operand, operand) for operand in inst.operands]


def clone_global(global_var: GlobalVariable) -> GlobalVariable:
    """Return a copy of a module-level global variable.

    The initializer constant is shared (constants are treated as
    immutable); the :class:`GlobalVariable` object itself — whose
    ``initializer``/``is_constant`` fields are mutable — is fresh, so a
    module holding the clone shares no mutable structure with the module
    holding the original.
    """
    return GlobalVariable(
        global_var.name,
        global_var.value_type,
        global_var.initializer,
        global_var.is_constant,
    )


def clone_function(function: Function, new_name: Optional[str] = None,
                   value_map: Optional[Dict[Value, Value]] = None) -> Function:
    """Return a deep copy of ``function``.

    Constants and module-level values (globals, declared functions) are
    shared; arguments, blocks and instructions are fresh objects.  A
    ``value_map`` seed remaps additional operands during cloning — the
    driver passes ``{old global: cloned global}`` so a cloned function
    references its own module's globals instead of the input module's.
    """
    clone = Function(
        new_name or function.name,
        function.function_type,
        [a.name for a in function.args],
        function.attributes,
    )
    value_map = dict(value_map) if value_map else {}
    for old_arg, new_arg in zip(function.args, clone.args):
        value_map[old_arg] = new_arg

    new_blocks = []
    for block in function.blocks:
        new_block = BasicBlock(block.name, parent=clone)
        new_blocks.append(new_block)
        value_map[block] = new_block
    clone.blocks.extend(new_blocks)
    clone_blocks(function.blocks, new_blocks, value_map)
    return clone


def clone_globals_into(module: Module, new_module: Module) -> Dict[Value, Value]:
    """Clone every global of ``module`` into ``new_module``.

    Returns the ``{original: clone}`` map callers pass to
    :func:`clone_function` (or use to remap already-cloned bodies) so the
    new module's functions reference its own globals, never the input's.
    """
    global_map: Dict[Value, Value] = {}
    for global_var in module.globals.values():
        cloned = clone_global(global_var)
        global_map[global_var] = cloned
        new_module.add_global(cloned)
    return global_map


def clone_module(module: Module) -> Module:
    """Return a deep copy of a module (globals and functions cloned)."""
    new_module = Module(module.name)
    global_map = clone_globals_into(module, new_module)
    for function in module.functions.values():
        if function.is_declaration:
            new_module.add_function(function)
        else:
            new_module.add_function(clone_function(function, value_map=global_map))
    return new_module


__all__ = ["clone_blocks", "clone_function", "clone_global",
           "clone_globals_into", "clone_module"]
