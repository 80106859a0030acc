"""Containers for the LLVM-like IR: basic blocks, functions and modules.

A :class:`Module` owns global variables and functions; a :class:`Function`
owns an ordered list of :class:`BasicBlock`; each block owns an ordered
list of instructions ending in exactly one terminator.  The first block of
a function is its entry block.

There are no use lists: a pass that replaces values records each one in a
:data:`Replacements` map and rewrites every operand with one
:meth:`Function.replace_uses` walk at the end, resolving its own reads
through the map (:func:`replacement_for`) until then.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import IRError
from .instructions import Branch, Instruction, Phi
from .types import FunctionType, LabelType, Type
from .values import Argument, GlobalVariable, Value


#: ``id(old) -> (old, new)``: the values one pass replaced, for
#: :meth:`Function.replace_uses`.
Replacements = Dict[int, Tuple[Value, Value]]


def replacement_for(mapping: Replacements, value: Value) -> Value:
    """``value`` followed through ``mapping`` to its final replacement.

    A value the map does not hold is returned as is.  Passes add an entry
    only for a value that is not already replaced by itself, so every
    chain ends.
    """
    entry = mapping.get(id(value))
    while entry is not None and entry[0] is value:
        value = entry[1]
        entry = mapping.get(id(value))
    return value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    __slots__ = ("instructions", "parent")

    def __init__(self, name: str, parent: Optional["Function"] = None):
        super().__init__(LabelType(), name)
        self.instructions: List[Instruction] = []
        self.parent = parent

    # -- structure -------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's terminator, or ``None`` if the block is unterminated."""
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def phis(self) -> List[Phi]:
        """The φ-nodes at the head of the block."""
        result = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    # -- mutation ---------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        """Append an instruction and set its parent."""
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        """Insert an instruction at ``index`` and set its parent."""
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        """Insert an instruction just before the terminator."""
        index = len(self.instructions)
        if self.terminator is not None:
            index -= 1
        return self.insert(index, inst)

    def remove(self, inst: Instruction) -> None:
        """Remove an instruction from the block."""
        self.instructions.remove(inst)
        inst.parent = None

    # -- CFG --------------------------------------------------------------
    def successors(self) -> List["BasicBlock"]:
        """Successor blocks according to the terminator."""
        term = self.terminator
        if isinstance(term, Branch):
            return list(term.targets)
        return []

    def predecessors(self) -> List["BasicBlock"]:
        """Predecessor blocks (computed by scanning the parent function)."""
        if self.parent is None:
            return []
        preds = []
        for block in self.parent.blocks:
            if self in block.successors():
                preds.append(block)
        return preds

    def ref(self) -> str:
        return f"label %{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"


class Function(Value):
    """A function definition or declaration.

    Attributes
    ----------
    function_type:
        The :class:`~repro.ir.types.FunctionType` signature.
    args:
        The formal :class:`~repro.ir.values.Argument` values.
    blocks:
        Basic blocks in layout order; empty for declarations.
    attributes:
        A frozenset of attribute strings; ``readonly`` and ``readnone`` are
        meaningful to the optimizer and the alias analysis.
    """

    # ``__weakref__`` lets caches key weakly by function identity (the
    # checkpoint fingerprint table) without pinning retired versions.
    __slots__ = ("function_type", "args", "blocks", "attributes", "parent",
                 "__weakref__")

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Optional[Sequence[str]] = None,
        attributes: Iterable[str] = (),
    ):
        super().__init__(function_type, name)
        self.function_type = function_type
        names = list(arg_names) if arg_names is not None else [
            f"arg{i}" for i in range(len(function_type.param_types))
        ]
        if len(names) != len(function_type.param_types):
            raise IRError("argument name count does not match signature")
        self.args: List[Argument] = [
            Argument(t, n, parent=self, index=i)
            for i, (t, n) in enumerate(zip(function_type.param_types, names))
        ]
        self.blocks: List[BasicBlock] = []
        self.attributes = frozenset(attributes)
        self.parent: Optional["Module"] = None

    # -- queries ----------------------------------------------------------
    @property
    def is_declaration(self) -> bool:
        """``True`` when the function has no body (an external declaration)."""
        return not self.blocks

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def entry(self) -> BasicBlock:
        """The entry block."""
        if not self.blocks:
            raise IRError(f"function @{self.name} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        """Look up a block by name."""
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"no block named %{name} in @{self.name}")

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over all instructions in layout order."""
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        """Total number of instructions in the function body."""
        return sum(len(b.instructions) for b in self.blocks)

    def ref(self) -> str:
        return f"@{self.name}"

    # -- mutation ---------------------------------------------------------
    def add_block(self, name: str, after: Optional[BasicBlock] = None) -> BasicBlock:
        """Create a new block with a unique name and add it to the function."""
        unique = self._unique_block_name(name)
        block = BasicBlock(unique, parent=self)
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, block)
        return block

    def _unique_block_name(self, name: str) -> str:
        existing = {b.name for b in self.blocks}
        if name not in existing:
            return name
        counter = 1
        while f"{name}.{counter}" in existing:
            counter += 1
        return f"{name}.{counter}"

    def remove_block(self, block: BasicBlock) -> None:
        """Remove a block (the caller is responsible for fixing edges/φ)."""
        self.blocks.remove(block)
        block.parent = None

    def replace_uses(self, mapping: "Replacements") -> int:
        """Rewrite every operand through ``mapping`` in one walk.

        ``mapping`` maps ``id(old)`` to ``(old, new)``; the entry holds
        ``old``, so no id in it can be recycled while the pass that built
        it runs, and a hit still checks identity.  Chains (``a`` replaced
        by ``b``, later ``b`` by ``c``) resolve to their end (see
        :func:`replacement_for`).  There are no use lists, so a pass that
        replaces values collects them in one map and calls this once;
        reads that may meet a replaced value before then resolve through
        the same map.  Returns the number of operand slots rewritten.
        """
        if not mapping:
            return 0
        count = 0
        for inst in self.instructions():
            operands = inst.operands
            for index, operand in enumerate(operands):
                entry = mapping.get(id(operand))
                if entry is not None and entry[0] is operand:
                    operands[index] = replacement_for(mapping, operand)
                    count += 1
        return count

    # -- copying ----------------------------------------------------------
    def clone(self, new_name: Optional[str] = None) -> "Function":
        """Deep-copy the function.

        The optimizer mutates functions in place; the validation driver
        clones the original first so the "before" version survives.  The
        clone shares constants and globals (immutable) but has fresh
        arguments, blocks and instructions.
        """
        from .cloning import clone_function

        return clone_function(self, new_name=new_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "declare" if self.is_declaration else "define"
        return f"<{kind} @{self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A translation unit: global variables plus functions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}

    def add_global(self, global_var: GlobalVariable) -> GlobalVariable:
        """Register a global variable (name must be unique)."""
        if global_var.name in self.globals:
            raise IRError(f"duplicate global @{global_var.name}")
        self.globals[global_var.name] = global_var
        return global_var

    def add_function(self, function: Function) -> Function:
        """Register a function (name must be unique)."""
        if function.name in self.functions:
            raise IRError(f"duplicate function @{function.name}")
        function.parent = self
        self.functions[function.name] = function
        return function

    def get_function(self, name: str) -> Function:
        """Look up a function by name."""
        return self.functions[name]

    def defined_functions(self) -> List[Function]:
        """Functions that have a body, in insertion order."""
        return [f for f in self.functions.values() if not f.is_declaration]

    def declarations(self) -> List[Function]:
        """External declarations, in insertion order."""
        return [f for f in self.functions.values() if f.is_declaration]

    def instruction_count(self) -> int:
        """Total instruction count over all defined functions."""
        return sum(f.instruction_count() for f in self.defined_functions())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name!r} ({len(self.functions)} functions)>"


__all__ = ["BasicBlock", "Function", "Module", "Replacements", "replacement_for"]
