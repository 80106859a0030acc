"""Loop unswitching.

If a loop contains a conditional branch whose condition is loop-invariant,
the test can be moved in front of the loop and the loop duplicated: one
copy in which the branch always goes to the true target and one in which
it always goes to the false target.  The transformation trades code size
for removing a per-iteration test, and it substantially restructures the
CFG — which is exactly why it is one of the harder optimizations for the
validator (the gating conditions of every φ inside the loop change).

The implementation is restricted to loops that:

* have a preheader and at least one in-loop conditional branch on an
  invariant, non-constant condition with both targets inside the loop;
* define no value used outside the loop (accumulation through memory is
  fine; this is what the benchmark generator produces for unswitchable
  loops).

Exit-block φ-nodes are patched with entries for the duplicated exiting
blocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.loops import Loop, LoopInfo
from ..ir.cloning import clone_blocks
from ..ir.instructions import Branch, Instruction, Phi
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt, Value
from .pass_manager import register_pass


def _defined_in_loop(value: Value, loop: Loop) -> bool:
    return isinstance(value, Instruction) and value.parent is not None and loop.contains(value.parent)


def _values_escape(function: Function, loop: Loop) -> bool:
    inside = {id(inst) for block in loop.blocks for inst in block.instructions}
    for block in function.blocks:
        if loop.contains(block):
            continue
        for inst in block.instructions:
            for operand in inst.operands:
                if id(operand) in inside:
                    return True
    return False


def _find_unswitchable_branch(loop: Loop) -> Optional[Tuple[BasicBlock, Branch]]:
    for block in loop.blocks:
        terminator = block.terminator
        if not isinstance(terminator, Branch) or not terminator.is_conditional:
            continue
        condition = terminator.condition
        if isinstance(condition, ConstantInt):
            continue
        if _defined_in_loop(condition, loop):
            continue
        true_target, false_target = terminator.targets
        if loop.contains(true_target) and loop.contains(false_target) and true_target is not false_target:
            return block, terminator
    return None


def _clone_loop(function: Function, loop: Loop, suffix: str) -> Dict[Value, Value]:
    """Clone every block of the loop; returns the old→new value map."""
    value_map: Dict[Value, Value] = {}
    new_blocks = []
    for block in loop.blocks:
        new_block = function.add_block(f"{block.name}.{suffix}")
        value_map[block] = new_block
        new_blocks.append(new_block)
    clone_blocks(loop.blocks, new_blocks, value_map)
    return value_map


def _fold_branch(block: BasicBlock, branch: Branch, taken: BasicBlock, not_taken: BasicBlock) -> None:
    """Replace a conditional branch by an unconditional one to ``taken``."""
    block.remove(branch)
    block.append(Branch(taken))
    if not_taken is not taken:
        for phi in not_taken.phis():
            phi.remove_incoming(block)


def _unswitch_loop(function: Function, loop: Loop) -> bool:
    preheader = loop.preheader()
    if preheader is None:
        return False
    # The preheader must end in an unconditional branch to the header: the
    # transformation replaces that branch with the invariant test.  (LLVM
    # guarantees this via loop-simplify; we simply skip other shapes, which
    # also prevents unswitching the same loop twice.)
    preheader_terminator = preheader.terminator
    if not isinstance(preheader_terminator, Branch) or preheader_terminator.is_conditional:
        return False
    if _values_escape(function, loop):
        return False
    found = _find_unswitchable_branch(loop)
    if found is None:
        return False
    branch_block, branch = found
    condition = branch.condition
    true_target, false_target = branch.targets

    exit_edges = loop.exit_edges()
    value_map = _clone_loop(function, loop, "us")

    # Patch exit-block φ-nodes: each exiting edge now has a twin.
    for inside, outside in exit_edges:
        cloned_inside = value_map[inside]
        for phi in outside.phis():
            incoming = phi.incoming_for(inside)
            if incoming is not None:
                phi.add_incoming(value_map.get(incoming, incoming), cloned_inside)

    # The preheader now tests the invariant condition and picks a version.
    cloned_header = value_map[loop.header]
    preheader.remove(preheader_terminator)
    preheader.append(Branch(condition, loop.header, cloned_header))

    # Header φ-nodes of the cloned loop must take their init value from the
    # preheader (the clone's blocks are not predecessors of each other's
    # originals, so incoming entries from outside the loop keep pointing at
    # the preheader — already correct because the preheader was not cloned).

    # Fold the invariant branch in each version.
    _fold_branch(branch_block, branch, true_target, false_target)
    cloned_branch_block = value_map[branch_block]
    cloned_branch = cloned_branch_block.terminator
    if isinstance(cloned_branch, Branch) and cloned_branch.is_conditional:
        cloned_true, cloned_false = cloned_branch.targets
        _fold_branch(cloned_branch_block, cloned_branch, cloned_false, cloned_true)
    return True


@register_pass("loop-unswitch")
def loop_unswitch(function: Function) -> bool:
    """Run (restricted) loop unswitching.  Returns ``True`` if changed."""
    if function.is_declaration:
        return False
    changed = False
    # One unswitch per outer iteration; recompute loop info afterwards.
    for _ in range(4):
        loop_info = LoopInfo.compute(function)
        done = False
        for loop in sorted(loop_info.loops, key=lambda l: l.depth):
            if _unswitch_loop(function, loop):
                changed = True
                done = True
                break
        if not done:
            break
    return changed


__all__ = ["loop_unswitch"]
