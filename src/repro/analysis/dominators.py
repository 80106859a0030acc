"""Dominator trees, dominance frontiers and post-dominators.

Dominators come from the Cooper–Harvey–Kennedy iterative algorithm over
the reverse postorder numbering, computed once per CFG shape by
:class:`~repro.analysis.shape.CFGFacts`; a :class:`DominatorTree` binds
those position-indexed facts to one function version's blocks.
Dominator-tree interval numbers make :meth:`DominatorTree.dominates`
O(1).  Dominance frontiers are needed by mem2reg's φ-placement;
post-dominators by ADCE's control-dependence computation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.module import BasicBlock, Function
from .cfg import predecessor_map, reverse_postorder
from .shape import CFGFacts


class DominatorTree:
    """The dominator tree of a function's reachable CFG.

    A view: :class:`~repro.analysis.shape.CFGFacts` (shared by every
    version with the same CFG shape) bound to this version's blocks,
    keyed by block object.  Use :meth:`compute` to build one for a lone
    function.  Unreachable blocks, and blocks added after the view was
    made, do not appear in the tree; :meth:`dominates` returns ``False``
    for them.
    """

    def __init__(self, function: Function, facts: CFGFacts):
        self.function = function
        self.facts = facts
        #: The version's blocks in layout order (position -> block).
        self.blocks: List[BasicBlock] = list(function.blocks)
        #: Block -> position in :attr:`blocks`.
        self.positions: Dict[BasicBlock, int] = {
            block: index for index, block in enumerate(self.blocks)}

    # -- construction ------------------------------------------------------
    @classmethod
    def compute(cls, function: Function) -> "DominatorTree":
        """Compute the dominator tree of ``function``."""
        return cls(function, CFGFacts.of(function))

    # -- queries -------------------------------------------------------------
    def reachable_blocks(self) -> List[BasicBlock]:
        """Blocks reachable from entry, in reverse postorder."""
        blocks = self.blocks
        return [blocks[index] for index in self.facts.rpo]

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator of ``block`` (``None`` for the entry)."""
        index = self.positions.get(block)
        if index is None:
            return None
        parent = self.facts.idom[index]
        if parent < 0 or parent == index:
            return None
        return self.blocks[parent]

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        """Blocks immediately dominated by ``block`` (in reverse postorder)."""
        index = self.positions.get(block)
        if index is None:
            return []
        blocks = self.blocks
        return [blocks[child] for child in self.facts.children[index]]

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` dominate ``b``?  (Every block dominates itself.)"""
        positions = self.positions
        index_a, index_b = positions.get(a), positions.get(b)
        if index_a is None or index_b is None:
            return False
        return self.facts.dominates(index_a, index_b)

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` dominate ``b`` and ``a is not b``?"""
        return a is not b and self.dominates(a, b)

    def dominance_frontier(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """The dominance frontier of every reachable block."""
        facts, blocks = self.facts, self.blocks
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {
            blocks[index]: set() for index in facts.rpo}
        for index in facts.rpo:
            block_preds = [pred for pred in facts.preds[index] if facts.idom[pred] >= 0]
            if len(block_preds) < 2:
                continue
            idom_index = facts.idom[index]
            for runner in block_preds:
                while runner != idom_index:
                    frontier[blocks[runner]].add(blocks[index])
                    next_runner = facts.idom[runner]
                    if next_runner == runner:
                        break
                    runner = next_runner
        return frontier

    def dominator_tree_preorder(self) -> List[BasicBlock]:
        """Blocks in a preorder walk of the dominator tree."""
        result: List[BasicBlock] = []
        rpo = self.facts.rpo
        if not rpo:
            return result
        children = self.facts.children
        stack = [rpo[0]]
        while stack:
            index = stack.pop()
            result.append(self.blocks[index])
            stack.extend(reversed(children[index]))
        return result


class PostDominatorTree:
    """Post-dominator relation, computed over the reversed CFG.

    Functions may have several exit blocks (multiple ``ret`` / ``unreachable``),
    so the computation uses a virtual exit node that every real exit leads to.
    """

    def __init__(self, ipostdom: Dict[int, Optional[BasicBlock]], order: List[BasicBlock]):
        self._ipdom = ipostdom
        self._index = {id(b): i for i, b in enumerate(order)}

    @classmethod
    def compute(cls, function: Function) -> "PostDominatorTree":
        """Compute post-dominators for ``function``."""
        blocks = reverse_postorder(function)
        exits = [b for b in blocks if not b.successors()]
        preds = predecessor_map(function)
        # Successors in the reversed graph are the original predecessors.
        reversed_succ: Dict[int, List[BasicBlock]] = {id(b): list(preds[b]) for b in blocks}
        reversed_pred: Dict[int, List[BasicBlock]] = {id(b): list(b.successors()) for b in blocks}

        # Postorder of the reversed CFG starting from the virtual exit.
        seen: Set[int] = set()
        postorder: List[BasicBlock] = []

        def visit(start: BasicBlock) -> None:
            stack = [(start, iter(reversed_succ[id(start)]))]
            seen.add(id(start))
            while stack:
                current, it = stack[-1]
                advanced = False
                for nxt in it:
                    if id(nxt) not in seen:
                        seen.add(id(nxt))
                        stack.append((nxt, iter(reversed_succ[id(nxt)])))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(current)
                    stack.pop()

        for exit_block in exits:
            if id(exit_block) not in seen:
                visit(exit_block)
        order = list(reversed(postorder))

        ipdom: Dict[int, Optional[BasicBlock]] = {}
        index = {id(b): i for i, b in enumerate(order)}
        # Virtual exit: exits have themselves as (temporary) roots.
        for exit_block in exits:
            ipdom[id(exit_block)] = exit_block

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[id(a)] > index[id(b)]:
                    a = ipdom[id(a)]
                while index[id(b)] > index[id(a)]:
                    b = ipdom[id(b)]
            return a

        changed = True
        while changed:
            changed = False
            for block in order:
                if block in exits:
                    continue
                candidates = [p for p in reversed_pred[id(block)]
                              if id(p) in ipdom and id(p) in index]
                if not candidates:
                    continue
                new_ipdom = candidates[0]
                for other in candidates[1:]:
                    new_ipdom = intersect(new_ipdom, other)
                if ipdom.get(id(block)) is not new_ipdom:
                    ipdom[id(block)] = new_ipdom
                    changed = True
        return cls(ipdom, order)

    def ipostdom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate post-dominator (``None`` for exit blocks/unreachable)."""
        parent = self._ipdom.get(id(block))
        if parent is block:
            return None
        return parent

    def postdominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` post-dominate ``b``?"""
        if id(a) not in self._index or id(b) not in self._index:
            return False
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            parent = self._ipdom.get(id(node))
            if parent is node:
                return False
            node = parent
        return False


__all__ = ["DominatorTree", "PostDominatorTree"]
