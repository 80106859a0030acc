"""Natural-loop detection.

A natural loop is identified by a back edge ``latch → header`` where the
header dominates the latch; the loop body is every block that can reach
the latch without passing through the header.  Loops sharing a header are
merged into a single :class:`Loop` (as LLVM's ``LoopInfo`` does), and
loops are nested into a forest.  Detection runs once per CFG shape, by
block position (:meth:`repro.analysis.shape.CFGFacts.loops`);
:class:`LoopInfo` binds the result to one function version's blocks.

The loop analysis feeds LICM, loop deletion, loop unswitching and the
gated-SSA construction (μ-node placement at headers, η-nodes at exits).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.module import BasicBlock, Function
from .dominators import DominatorTree


class Loop:
    """One natural loop of a function version.

    Attributes
    ----------
    header:
        The unique loop header block.
    blocks:
        All blocks of the loop, including the header and any nested loops.
    latches:
        Blocks with a back edge to the header.
    parent:
        The enclosing loop, or ``None`` for a top-level loop.
    children:
        Loops nested immediately inside this one.
    """

    def __init__(self, header: BasicBlock, blocks: List[BasicBlock],
                 latches: List[BasicBlock]):
        self.header = header
        self.blocks = blocks
        self._members = frozenset(blocks)
        self.latches = latches
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    def contains(self, block: BasicBlock) -> bool:
        """Is ``block`` part of this loop (including nested loops)?"""
        return block in self._members

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for top-level loops."""
        depth = 1
        parent = self.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        return depth

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if there is one."""
        preds = [p for p in self.header.predecessors() if not self.contains(p)]
        if len(preds) == 1:
            return preds[0]
        return None

    def exit_edges(self) -> List[tuple]:
        """Edges ``(inside_block, outside_block)`` leaving the loop."""
        edges = []
        for block in self.blocks:
            for successor in block.successors():
                if not self.contains(successor):
                    edges.append((block, successor))
        return edges

    def exit_blocks(self) -> List[BasicBlock]:
        """Distinct target blocks of the exit edges."""
        seen: Set[BasicBlock] = set()
        result = []
        for _, outside in self.exit_edges():
            if outside not in seen:
                seen.add(outside)
                result.append(outside)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header=%{self.header.name} blocks={len(self.blocks)} depth={self.depth}>"


class LoopInfo:
    """The loop forest of a function version.

    A view: the loops of the version's :class:`~repro.analysis.shape.CFGFacts`
    (found once per CFG shape) bound to its own blocks.
    """

    def __init__(self, loops: List[Loop], loop_of_block: Dict[BasicBlock, Loop]):
        self.loops = loops
        self._loop_of_block = loop_of_block

    @classmethod
    def compute(cls, function: Function, dom: Optional[DominatorTree] = None) -> "LoopInfo":
        """Detect all natural loops of ``function`` (bound through ``dom``)."""
        dom = dom or DominatorTree.compute(function)
        blocks, facts = dom.blocks, dom.facts
        found = facts.loops()
        loops = [Loop(blocks[loop.header], [blocks[b] for b in loop.blocks],
                      [blocks[b] for b in loop.latches]) for loop in found]
        for loop, shape_loop in zip(loops, found):
            if shape_loop.parent >= 0:
                loop.parent = loops[shape_loop.parent]
            loop.children = [loops[child] for child in shape_loop.children]
        loop_of_block = {blocks[block]: loops[index]
                         for block, index in facts.loop_of().items()}
        return cls(loops, loop_of_block)

    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, or ``None``."""
        return self._loop_of_block.get(block)

    def loop_depth(self, block: BasicBlock) -> int:
        """Nesting depth of ``block`` (0 outside any loop)."""
        loop = self.loop_for(block)
        return loop.depth if loop is not None else 0

    def __len__(self) -> int:
        return len(self.loops)


__all__ = ["Loop", "LoopInfo"]
