"""Global value numbering with alias-aware load elimination.

This is the workhorse pass of the paper's pipeline (Figure 5 shows it both
transforms the most functions and is the hardest to validate).  The
implementation has two cooperating parts:

* **Scoped expression GVN** — pure expressions (arithmetic, comparisons,
  casts, selects, GEPs) are value-numbered along a preorder walk of the
  dominator tree with a scoped hash table, so an expression available in a
  dominating block replaces any later recomputation.  Commutative
  operators are canonicalized before hashing.

* **Alias-aware memory simplification** — within each block, stores are
  tracked so that loads can be forwarded from a must-aliasing store
  (store-to-load forwarding), and repeated loads of the same address with
  no intervening may-write are merged.  This uses the same
  :class:`~repro.analysis.alias.AliasAnalysis` that the validator's
  load/store rewrite rules use — e.g. distinct ``alloca``s never alias.

Both parts record what they replace in one map and rewrite the uses in a
single walk at the end (:meth:`~repro.ir.module.Function.replace_uses`).
Until then, memory forwarding reads operands through the map (the alias
analysis too), and value numbering gives a replaced value its
replacement's number.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.alias import AliasAnalysis
from ..analysis.dominators import DominatorTree
from ..ir.instructions import (
    BinaryOperator,
    Call,
    Cast,
    COMMUTATIVE_OPS,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
    SWAPPED_PREDICATE,
)
from ..ir.module import BasicBlock, Function, Replacements, replacement_for
from ..ir.values import ConstantInt, Value
from .pass_manager import register_pass


class _ValueNumbering:
    """Assigns stable numbers to values; structurally equal constants share one."""

    def __init__(self):
        self._numbers: Dict[object, int] = {}
        self._next = 0

    def number(self, value: Value) -> int:
        if isinstance(value, ConstantInt):
            key = ("const", value.type.bits, value.value)
        else:
            key = id(value)
        if key not in self._numbers:
            self._numbers[key] = self._next
            self._next += 1
        return self._numbers[key]

    def alias_to(self, value: Value, leader: Value) -> None:
        """Make ``value`` share the leader's number."""
        self._numbers[id(value)] = self.number(leader)


def _expression_key(inst: Instruction, numbering: _ValueNumbering) -> Optional[Tuple]:
    """A hashable key identifying the expression an instruction computes."""
    if isinstance(inst, BinaryOperator):
        lhs, rhs = numbering.number(inst.lhs), numbering.number(inst.rhs)
        if inst.opcode in COMMUTATIVE_OPS and lhs > rhs:
            lhs, rhs = rhs, lhs
        return ("bin", inst.opcode, lhs, rhs)
    if isinstance(inst, ICmp):
        lhs, rhs = numbering.number(inst.lhs), numbering.number(inst.rhs)
        predicate = inst.predicate
        if lhs > rhs:
            lhs, rhs = rhs, lhs
            predicate = SWAPPED_PREDICATE[predicate]
        return ("icmp", predicate, lhs, rhs)
    if isinstance(inst, Cast):
        return ("cast", inst.opcode, str(inst.type), numbering.number(inst.value))
    if isinstance(inst, Select):
        return (
            "select",
            numbering.number(inst.condition),
            numbering.number(inst.if_true),
            numbering.number(inst.if_false),
        )
    if isinstance(inst, GetElementPtr):
        return ("gep", numbering.number(inst.pointer)) + tuple(
            numbering.number(index) for index in inst.indices
        )
    return None


def _forward_memory(block: BasicBlock, alias: AliasAnalysis,
                    replaced: Replacements) -> bool:
    """Block-local store-to-load forwarding and redundant-load elimination.

    ``alias`` resolves through ``replaced``, the map this records into.
    """
    changed = False
    available_stores: List[Store] = []
    available_loads: List[Load] = []
    for inst in list(block.instructions):
        if isinstance(inst, Store):
            available_stores = [
                s for s in available_stores if alias.no_alias(s.pointer, inst.pointer)
            ]
            available_loads = [
                l for l in available_loads if alias.no_alias(l.pointer, inst.pointer)
            ]
            available_stores.append(inst)
        elif isinstance(inst, Load):
            replacement: Optional[Value] = None
            for store in reversed(available_stores):
                if alias.must_alias(store.pointer, inst.pointer) and store.value.type == inst.type:
                    replacement = replacement_for(replaced, store.value)
                    break
            if replacement is None:
                for load in reversed(available_loads):
                    if alias.must_alias(load.pointer, inst.pointer) and load.type == inst.type:
                        replacement = load
                        break
            if replacement is not None:
                replaced[id(inst)] = (inst, replacement)
                block.remove(inst)
                changed = True
            else:
                available_loads.append(inst)
        elif isinstance(inst, Call):
            if not inst.is_readnone() and not inst.is_readonly():
                available_stores = []
                available_loads = []
    return changed


@register_pass("gvn")
def gvn(function: Function) -> bool:
    """Run GVN (+ alias-aware load elimination).  Returns ``True`` if changed."""
    if function.is_declaration:
        return False
    changed = False
    replaced: Replacements = {}
    alias = AliasAnalysis(lambda value: replacement_for(replaced, value))

    # Memory simplification first: it can expose more pure-expression
    # equivalences (a forwarded load becomes the stored expression).
    for block in function.blocks:
        if _forward_memory(block, alias, replaced):
            changed = True

    dom = DominatorTree.compute(function)
    numbering = _ValueNumbering()
    for old, _ in list(replaced.values()):
        numbering.alias_to(old, replacement_for(replaced, old))
    leaders: Dict[Tuple, Instruction] = {}

    def process(block: BasicBlock) -> List[Tuple]:
        nonlocal changed
        added: List[Tuple] = []
        for inst in list(block.instructions):
            if isinstance(inst, (Phi, Store, Call, Load)) or inst.is_terminator():
                continue
            if not inst.has_result() or inst.has_side_effects():
                continue
            key = _expression_key(inst, numbering)
            if key is None:
                continue
            leader = leaders.get(key)
            if leader is not None and leader.parent is not None:
                replaced[id(inst)] = (inst, leader)
                numbering.alias_to(inst, leader)
                block.remove(inst)
                changed = True
            else:
                leaders[key] = inst
                added.append(key)
        return added

    # Preorder walk of the dominator tree; keys added in a block are only
    # visible in its dominator subtree (popped on the way back up).
    def walk(block: BasicBlock) -> None:
        added = process(block)
        for child in dom.children(block):
            walk(child)
        for key in added:
            leaders.pop(key, None)

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000))
    try:
        walk(function.entry)
    finally:
        sys.setrecursionlimit(old_limit)
    function.replace_uses(replaced)
    return changed


__all__ = ["gvn"]
