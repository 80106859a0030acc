"""Intentionally miscompiling passes (fault injection).

Translation validation is only interesting if it can actually catch
miscompilations.  These passes inject realistic, silent bugs — the kind a
broken optimizer would introduce — so the test-suite and the examples can
demonstrate that the validator rejects them (no false *negatives* on these
seeded bugs), while correct passes are mostly accepted.

Every injector is deterministic: it mutates the first opportunity it finds
and reports whether it changed anything.
"""

from __future__ import annotations

from ..analysis.alias import AliasAnalysis
from ..ir.instructions import BinaryOperator, Branch, ICmp, Load, Store
from ..ir.module import Function
from ..ir.values import ConstantInt
from .pass_manager import register_pass


@register_pass("bug-flip-operator")
def flip_operator(function: Function) -> bool:
    """Turn the first ``add`` into a ``sub`` (a classic strength-reduction typo)."""
    for inst in function.instructions():
        if isinstance(inst, BinaryOperator) and inst.opcode == "add" and inst.lhs is not inst.rhs:
            inst.opcode = "sub"
            return True
    return False


@register_pass("bug-off-by-one")
def off_by_one(function: Function) -> bool:
    """Add 1 to the first integer constant operand of a binary operator."""
    for inst in function.instructions():
        if isinstance(inst, BinaryOperator):
            for index, operand in enumerate(inst.operands):
                if isinstance(operand, ConstantInt):
                    inst.operands[index] = ConstantInt(operand.type, operand.value + 1)
                    return True
    return False


@register_pass("bug-swap-branch")
def swap_branch_targets(function: Function) -> bool:
    """Swap the targets of the first conditional branch (inverted condition bug)."""
    for inst in function.instructions():
        if isinstance(inst, Branch) and inst.is_conditional:
            if inst.targets[0] is not inst.targets[1]:
                inst.operands[1], inst.operands[2] = inst.operands[2], inst.operands[1]
                return True
    return False


@register_pass("bug-drop-store")
def drop_store(function: Function) -> bool:
    """Delete the first store whose value is later (possibly) loaded.

    Mimics an over-aggressive dead-store elimination that ignores aliasing.
    """
    alias = AliasAnalysis()
    loads = [inst for inst in function.instructions() if isinstance(inst, Load)]
    for inst in function.instructions():
        if isinstance(inst, Store):
            if any(not alias.no_alias(inst.pointer, load.pointer) for load in loads):
                inst.parent.remove(inst)
                return True
    return False


@register_pass("bug-bad-load-forwarding")
def bad_load_forwarding(function: Function) -> bool:
    """Forward a store's value to a later load even across a clobbering store.

    Mimics a GVN that forgot to check aliasing when forwarding loads.
    """
    for block in function.blocks:
        stores = [inst for inst in block.instructions if isinstance(inst, Store)]
        loads = [inst for inst in block.instructions if isinstance(inst, Load)]
        if len(stores) >= 2 and loads:
            first_store = stores[0]
            for load in loads:
                if (
                    block.instructions.index(load) > block.instructions.index(first_store)
                    and load.type == first_store.value.type
                ):
                    function.replace_uses({id(load): (load, first_store.value)})
                    block.remove(load)
                    return True
    return False


@register_pass("bug-weaken-compare")
def weaken_compare(function: Function) -> bool:
    """Replace the first ``slt`` comparison with ``sle`` (boundary bug)."""
    for inst in function.instructions():
        if isinstance(inst, ICmp) and inst.predicate == "slt":
            inst.predicate = "sle"
            return True
    return False


#: Names of all fault-injection passes, for tests and examples.
ALL_BUGGY_PASSES = (
    "bug-flip-operator",
    "bug-off-by-one",
    "bug-swap-branch",
    "bug-drop-store",
    "bug-bad-load-forwarding",
    "bug-weaken-compare",
)

#: A pipeline with an injected miscompilation: every function the flip
#: changes is rejected at that step, so its later pairs are doomed and a
#: scheduler has work to cancel.
BUGGY_PIPELINE = ("adce", "bug-flip-operator", "gvn", "dse")

__all__ = [
    "flip_operator",
    "off_by_one",
    "swap_branch_targets",
    "drop_store",
    "bad_load_forwarding",
    "weaken_compare",
    "ALL_BUGGY_PASSES",
    "BUGGY_PIPELINE",
]
