"""Instruction combining: constant folding and algebraic canonicalization.

This pass mirrors the slice of LLVM's ``instcombine``/``constprop`` whose
effects the validator's optimization-specific rewrite rules are designed
to mirror (§4 of the paper):

* constant folding of integer arithmetic, comparisons and casts;
* algebraic identities (``x+0``, ``x*1``, ``x&x``, ``x^x``...);
* canonicalization LLVM performs to give instructions "a more regular
  structure": constants to the right of commutative operators,
  ``icmp <const>, x`` swapped to put the constant on the right,
  ``add x, -k`` rewritten to ``sub x, k``;
* the shift preferences ``x+x → shl x, 1`` and ``mul x, 2^k → shl x, k``;
* trivially dead instruction removal.

The pass runs to a local fixpoint (bounded by a small iteration limit).
"""

from __future__ import annotations

from typing import Optional

from ..ir.instructions import (
    BinaryOperator,
    Cast,
    ICmp,
    Instruction,
    Phi,
    Select,
    SWAPPED_PREDICATE,
)
from ..ir.module import Function, Replacements, replacement_for
from ..ir.types import IntType
from ..ir.values import ConstantInt, Value
from ..analysis.usedef import UseDefInfo
from .constfold import (
    fold_binary_constants,
    fold_cast,
    fold_icmp_constants,
    is_power_of_two,
    log2_exact,
)
from .pass_manager import register_pass

_MAX_ITERATIONS = 8


def _const(type_, value: int) -> ConstantInt:
    return ConstantInt(type_, value)


def _simplify_binary(inst: BinaryOperator) -> Optional[Value]:
    """Return a replacement value for ``inst``, or ``None``."""
    lhs, rhs = inst.lhs, inst.rhs
    opcode = inst.opcode
    lhs_const = isinstance(lhs, ConstantInt)
    rhs_const = isinstance(rhs, ConstantInt)

    if lhs_const and rhs_const:
        folded = fold_binary_constants(opcode, lhs, rhs)
        if folded is not None:
            return folded

    if not isinstance(inst.type, IntType):
        return None

    # Identity / absorbing elements.
    if rhs_const:
        if rhs.value == 0 and opcode in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return lhs
        if rhs.value == 0 and opcode in ("mul", "and"):
            return _const(inst.type, 0)
        if rhs.value == 1 and opcode in ("mul", "sdiv", "udiv"):
            return lhs
    if lhs_const:
        if lhs.value == 0 and opcode == "add":
            return rhs
        if lhs.value == 0 and opcode in ("mul", "and", "sdiv", "udiv", "shl", "lshr", "ashr"):
            return _const(inst.type, 0)
        if lhs.value == 1 and opcode == "mul":
            return rhs

    if lhs is rhs:
        if opcode in ("sub", "xor"):
            return _const(inst.type, 0)
        if opcode in ("and", "or"):
            return lhs
    return None


def _canonicalize_binary(inst: BinaryOperator) -> bool:
    """Rewrite ``inst`` in place to LLVM's preferred shape.  Returns changed."""
    changed = False
    # Constants go to the right of commutative operators.
    if inst.is_commutative() and isinstance(inst.lhs, ConstantInt) and not isinstance(inst.rhs, ConstantInt):
        inst.operands[0], inst.operands[1] = inst.operands[1], inst.operands[0]
        changed = True
    lhs, rhs = inst.lhs, inst.rhs
    if not isinstance(inst.type, IntType):
        return changed
    # add x, x -> shl x, 1
    if inst.opcode == "add" and lhs is rhs:
        inst.opcode = "shl"
        inst.operands[1] = _const(inst.type, 1)
        return True
    # mul x, 2^k -> shl x, k
    if inst.opcode == "mul" and isinstance(rhs, ConstantInt) and is_power_of_two(rhs.value):
        inst.opcode = "shl"
        inst.operands[1] = _const(inst.type, log2_exact(rhs.value))
        return True
    # add x, -k -> sub x, k
    if inst.opcode == "add" and isinstance(rhs, ConstantInt) and rhs.value < 0:
        inst.opcode = "sub"
        inst.operands[1] = _const(inst.type, -rhs.value)
        return True
    # sub x, -k -> add x, k
    if inst.opcode == "sub" and isinstance(rhs, ConstantInt) and rhs.value < 0:
        inst.opcode = "add"
        inst.operands[1] = _const(inst.type, -rhs.value)
        return True
    return changed


def _simplify_icmp(inst: ICmp) -> Optional[Value]:
    lhs, rhs = inst.lhs, inst.rhs
    if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
        folded = fold_icmp_constants(inst.predicate, lhs, rhs)
        if folded is not None:
            return folded
    if lhs is rhs:
        always_true = inst.predicate in ("eq", "sle", "sge", "ule", "uge")
        return _const(IntType(1), 1 if always_true else 0)
    return None


def _canonicalize_icmp(inst: ICmp) -> bool:
    """Put the constant on the right (``icmp sgt 10, a`` → ``icmp slt a, 10``)."""
    if isinstance(inst.lhs, ConstantInt) and not isinstance(inst.rhs, ConstantInt):
        inst.operands[0], inst.operands[1] = inst.operands[1], inst.operands[0]
        inst.predicate = SWAPPED_PREDICATE[inst.predicate]
        return True
    return False


def _simplify_select(inst: Select) -> Optional[Value]:
    condition = inst.condition
    if isinstance(condition, ConstantInt):
        return inst.if_true if condition.value != 0 else inst.if_false
    if inst.if_true is inst.if_false:
        return inst.if_true
    return None


def _simplify_cast(inst: Cast) -> Optional[Value]:
    value = inst.value
    if isinstance(value, ConstantInt) and isinstance(inst.type, IntType) and isinstance(value.type, IntType):
        folded = fold_cast(inst.opcode, value.value, value.type.bits, inst.type.bits)
        if folded is not None:
            return ConstantInt(inst.type, folded)
    if inst.opcode == "bitcast" and value.type == inst.type:
        return value
    return None


def _simplify_phi(inst: Phi) -> Optional[Value]:
    values = [v for v, _ in inst.incoming]
    if values and all(v is values[0] for v in values):
        return values[0]
    return None


def simplify_instruction(inst: Instruction) -> Optional[Value]:
    """Return a value that can replace ``inst``, or ``None``.

    Exposed so SCCP and tests can reuse the same simplification logic.
    """
    if isinstance(inst, BinaryOperator):
        return _simplify_binary(inst)
    if isinstance(inst, ICmp):
        return _simplify_icmp(inst)
    if isinstance(inst, Select):
        return _simplify_select(inst)
    if isinstance(inst, Cast):
        return _simplify_cast(inst)
    if isinstance(inst, Phi):
        return _simplify_phi(inst)
    return None


def _resolve_operands(inst: Instruction, replaced: Replacements) -> None:
    """Point ``inst``'s operands at the final replacements of this sweep.

    A sweep rewrites uses once, at its end; an instruction it visits
    first reads its operands through the sweep's map, exactly as if each
    replacement had been rewritten on the spot.
    """
    operands = inst.operands
    for index, operand in enumerate(operands):
        operands[index] = replacement_for(replaced, operand)


def remove_trivially_dead(function: Function) -> int:
    """Remove register-producing instructions with no users and no side effects."""
    removed = 0
    while True:
        usedef = UseDefInfo(function)
        dead = [
            inst
            for inst in function.instructions()
            if inst.has_result() and not inst.has_side_effects() and usedef.use_count(inst) == 0
        ]
        if not dead:
            return removed
        for inst in dead:
            inst.parent.remove(inst)
            removed += 1


@register_pass("instcombine")
def instcombine(function: Function) -> bool:
    """Run instruction combining on ``function``.  Returns ``True`` if changed."""
    changed_any = False
    for _ in range(_MAX_ITERATIONS):
        changed = False
        replaced: Replacements = {}
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                if replaced:
                    _resolve_operands(inst, replaced)
                replacement = simplify_instruction(inst)
                if replacement is not None and replacement is not inst:
                    replaced[id(inst)] = (inst, replacement)
                    block.remove(inst)
                    changed = True
                    continue
                if isinstance(inst, BinaryOperator) and _canonicalize_binary(inst):
                    changed = True
                elif isinstance(inst, ICmp) and _canonicalize_icmp(inst):
                    changed = True
        function.replace_uses(replaced)
        if remove_trivially_dead(function):
            changed = True
        changed_any = changed_any or changed
        if not changed:
            break
    return changed_any


@register_pass("constprop")
def constant_propagation(function: Function) -> bool:
    """Plain constant propagation/folding (no canonicalization).

    Included because the paper mentions it is subsumed by SCCP; having it
    as a separate pass lets tests and ablations demonstrate exactly that.
    """
    changed_any = False
    for _ in range(_MAX_ITERATIONS):
        changed = False
        replaced: Replacements = {}
        for block in function.blocks:
            for inst in list(block.instructions):
                if isinstance(inst, (BinaryOperator, ICmp, Cast)):
                    if replaced:
                        _resolve_operands(inst, replaced)
                    replacement = None
                    if all(isinstance(op, ConstantInt) for op in inst.operands):
                        replacement = simplify_instruction(inst)
                    if isinstance(replacement, ConstantInt):
                        replaced[id(inst)] = (inst, replacement)
                        block.remove(inst)
                        changed = True
        function.replace_uses(replaced)
        changed_any = changed_any or changed
        if not changed:
            break
    return changed_any


__all__ = ["instcombine", "constant_propagation", "simplify_instruction", "remove_trivially_dead"]
