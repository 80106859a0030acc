"""Control-flow-graph utilities.

These helpers work directly on :class:`~repro.ir.module.Function` objects;
the CFG is implicit in the blocks' terminators.  They are used by the
dominator computation, the loop analysis, gated-SSA construction, and by
several optimization passes.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Set, TypeVar

from ..ir.module import BasicBlock, Function

Node = TypeVar("Node", bound=Hashable)


def successors(block: BasicBlock) -> List[BasicBlock]:
    """Successor blocks of ``block`` (in branch order)."""
    return block.successors()


def predecessor_map(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map each block to its list of predecessors (in layout order)."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        for successor in block.successors():
            preds[successor].append(block)
    return preds


def preorder(entry: Node, successors: Callable[[Node], Sequence[Node]]) -> List[Node]:
    """Nodes reachable from ``entry``, in depth-first preorder.

    Works on any hashable nodes: blocks here, block positions in
    :mod:`repro.analysis.shape`.
    """
    seen: Set[Node] = set()
    order: List[Node] = []
    stack = [entry]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        for successor in reversed(successors(node)):
            if successor not in seen:
                stack.append(successor)
    return order


def postorder_reversed(entry: Node, successors: Callable[[Node], Sequence[Node]]
                       ) -> List[Node]:
    """Nodes reachable from ``entry``, in reverse depth-first postorder."""
    seen = {entry}
    postorder: List[Node] = []
    stack = [(entry, iter(successors(entry)))]
    while stack:
        current, pending = stack[-1]
        for successor in pending:
            if successor not in seen:
                seen.add(successor)
                stack.append((successor, iter(successors(successor))))
                break
        else:
            postorder.append(current)
            stack.pop()
    postorder.reverse()
    return postorder


def reachable_blocks(function: Function) -> List[BasicBlock]:
    """Blocks reachable from the entry, in depth-first preorder."""
    if not function.blocks:
        return []
    return preorder(function.entry, BasicBlock.successors)


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Reachable blocks in reverse postorder (a topological-ish order)."""
    if not function.blocks:
        return []
    return postorder_reversed(function.entry, BasicBlock.successors)


def remove_unreachable_blocks(function: Function) -> int:
    """Delete blocks not reachable from the entry.

    φ-nodes in remaining blocks lose the incoming entries that referred to
    deleted predecessors.  Returns the number of blocks removed.
    """
    reachable = {id(b) for b in reachable_blocks(function)}
    dead = [b for b in function.blocks if id(b) not in reachable]
    if not dead:
        return 0
    dead_ids = {id(b) for b in dead}
    for block in function.blocks:
        if id(block) in dead_ids:
            continue
        for phi in block.phis():
            for value, pred in list(phi.incoming):
                if id(pred) in dead_ids:
                    phi.remove_incoming(pred)
    for block in dead:
        function.remove_block(block)
    return len(dead)


def is_reducible(function: Function) -> bool:
    """Check whether the function's CFG is reducible.

    The paper's front end (and ours) rejects irreducible functions.  The
    check runs on the function's CFG shape
    (:meth:`repro.analysis.shape.CFGFacts.is_reducible`).
    """
    from .shape import CFGFacts

    return CFGFacts.of(function).is_reducible()


def split_critical_edges(function: Function) -> int:
    """Split critical edges (multi-successor block → multi-predecessor block).

    Inserts a fresh block containing a single unconditional branch on each
    critical edge and rewires the relevant φ incoming entries.  Several
    passes (and gated-SSA construction) are simpler when no critical edges
    exist.  Returns the number of edges split.
    """
    from ..ir.instructions import Branch

    preds = predecessor_map(function)
    split_count = 0
    for block in list(function.blocks):
        successors_ = block.successors()
        if len(successors_) < 2:
            continue
        terminator = block.terminator
        for successor in successors_:
            if len(preds[successor]) < 2:
                continue
            new_block = function.add_block(f"{block.name}.split", after=block)
            new_block.append(Branch(successor))
            terminator.replace_target(successor, new_block)
            for phi in successor.phis():
                for value, pred in list(phi.incoming):
                    if pred is block:
                        phi.remove_incoming(pred)
                        phi.add_incoming(value, new_block)
            split_count += 1
            preds = predecessor_map(function)
    return split_count


__all__ = [
    "successors",
    "preorder",
    "postorder_reversed",
    "predecessor_map",
    "reachable_blocks",
    "reverse_postorder",
    "remove_unreachable_blocks",
    "is_reducible",
    "split_critical_edges",
]
