"""mem2reg: promote stack allocations to SSA registers.

The paper's experimental setup runs ``clang`` and then LLVM's ``mem2reg``
to place φ-nodes before optimizing; our corpora are produced the same way
(the generator emits local variables as ``alloca``/``load``/``store`` and
this pass promotes them).  The algorithm is the classical one:

1. find *promotable* allocas — those used only as the pointer operand of
   loads and stores;
2. place φ-nodes at the iterated dominance frontier of the stores;
3. rename along a depth-first walk of the dominator tree, replacing loads
   with the reaching definition and deleting the memory traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.cfg import predecessor_map
from ..analysis.dominators import DominatorTree
from ..ir.instructions import Alloca, Load, Phi, Store
from ..ir.module import BasicBlock, Function, Replacements, replacement_for
from ..ir.values import UndefValue, Value
from .pass_manager import register_pass


def _is_promotable(function: Function, alloca: Alloca) -> bool:
    """An alloca is promotable if it is only ever loaded from / stored to."""
    if alloca.count is not None:
        return False
    if not alloca.allocated_type.is_first_class():
        return False
    for inst in function.instructions():
        for operand in inst.operands:
            if operand is not alloca:
                continue
            if isinstance(inst, Load) and inst.pointer is alloca:
                continue
            if isinstance(inst, Store) and inst.pointer is alloca and inst.value is not alloca:
                continue
            return False
    return True


@register_pass("mem2reg")
def mem2reg(function: Function) -> bool:
    """Promote promotable allocas in ``function``.  Returns ``True`` if changed."""
    allocas = [
        inst
        for inst in function.instructions()
        if isinstance(inst, Alloca) and _is_promotable(function, inst)
    ]
    if not allocas:
        return False

    dom = DominatorTree.compute(function)
    frontier = dom.dominance_frontier()
    preds = predecessor_map(function)
    reachable = {id(b) for b in dom.reachable_blocks()}

    phis_for_alloca: Dict[int, Dict[int, Phi]] = {}
    for alloca in allocas:
        # Blocks containing a store to this alloca.
        defining_blocks = {
            id(inst.parent): inst.parent
            for inst in function.instructions()
            if isinstance(inst, Store) and inst.pointer is alloca
        }
        # Iterated dominance frontier.
        placed: Dict[int, Phi] = {}
        worklist: List[BasicBlock] = list(defining_blocks.values())
        seen: Set[int] = set(defining_blocks)
        while worklist:
            block = worklist.pop()
            if id(block) not in reachable:
                continue
            for frontier_block in frontier.get(block, ()):
                if id(frontier_block) in placed:
                    continue
                phi = Phi(alloca.allocated_type, name=f"{alloca.name}.phi" if alloca.name else "")
                frontier_block.insert(0, phi)
                placed[id(frontier_block)] = phi
                if id(frontier_block) not in seen:
                    seen.add(id(frontier_block))
                    worklist.append(frontier_block)
        phis_for_alloca[id(alloca)] = placed

    undef_cache: Dict[int, Value] = {}

    def initial_value(alloca: Alloca) -> Value:
        if id(alloca) not in undef_cache:
            undef_cache[id(alloca)] = UndefValue(alloca.allocated_type)
        return undef_cache[id(alloca)]

    # Rename along the dominator tree.  A promoted load's uses are not
    # rewritten on the spot (a whole-function scan per load is quadratic):
    # each load is mapped to its reaching value, keyed by ``id(load)`` with
    # the load itself held in the entry so a recycled id can never match.
    # Values entering ``state`` are resolved through the map first, so a
    # mapped value is never itself a promoted load; one pass at the end
    # rewrites every operand, φ incoming values included.
    replaced: Replacements = {}

    alloca_ids = {id(a) for a in allocas}
    entry_state = {id(a): initial_value(a) for a in allocas}
    stack = [(function.entry, entry_state)]
    visited: Set[int] = set()
    while stack:
        block, incoming_state = stack.pop()
        if id(block) in visited:
            continue
        visited.add(id(block))
        state = dict(incoming_state)

        for inst in list(block.instructions):
            if isinstance(inst, Phi):
                # φ placed for one of our allocas becomes the new reaching value.
                for alloca in allocas:
                    if phis_for_alloca[id(alloca)].get(id(block)) is inst:
                        state[id(alloca)] = inst
                continue
            if isinstance(inst, Load) and id(inst.pointer) in alloca_ids:
                replaced[id(inst)] = (inst, state[id(inst.pointer)])
                block.remove(inst)
            elif isinstance(inst, Store) and id(inst.pointer) in alloca_ids:
                state[id(inst.pointer)] = replacement_for(replaced, inst.value)
                block.remove(inst)

        # Fill φ operands of successors.
        for successor in block.successors():
            for alloca in allocas:
                phi = phis_for_alloca[id(alloca)].get(id(successor))
                if phi is not None:
                    phi.add_incoming(state[id(alloca)], block)

        for child in dom.children(block):
            stack.append((child, state))

    function.replace_uses(replaced)

    # Remove the allocas themselves.
    for alloca in allocas:
        if alloca.parent is not None:
            alloca.parent.remove(alloca)

    # φ-nodes placed in blocks with predecessors we never visited (unreachable
    # preds) may be missing entries; fill them with undef for well-formedness.
    for alloca in allocas:
        for block_id, phi in phis_for_alloca[id(alloca)].items():
            block = next(b for b in function.blocks if id(b) == block_id)
            have = {id(p) for _, p in phi.incoming}
            for pred in preds[block]:
                if id(pred) not in have:
                    phi.add_incoming(initial_value(alloca), pred)

    _prune_dead_phis(function)
    return True


def _prune_dead_phis(function: Function) -> None:
    """Remove φ-nodes that no non-φ instruction (transitively) uses.

    The placement phase inserts φ-nodes at the full iterated dominance
    frontier, many of which end up unused; LLVM prunes these too.  Liveness
    is seeded from non-φ users and propagated through φ operands, so
    φ-only cycles that nothing reads are removed as well.
    """
    live: Set[int] = set()
    worklist: List[Phi] = []
    for inst in function.instructions():
        if isinstance(inst, Phi):
            continue
        for operand in inst.operands:
            if isinstance(operand, Phi) and id(operand) not in live:
                live.add(id(operand))
                worklist.append(operand)
    while worklist:
        phi = worklist.pop()
        for operand in phi.operands:
            if isinstance(operand, Phi) and id(operand) not in live:
                live.add(id(operand))
                worklist.append(operand)
    for block in function.blocks:
        for phi in list(block.phis()):
            if id(phi) not in live:
                block.remove(phi)


__all__ = ["mem2reg"]
