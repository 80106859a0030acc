"""Control-flow facts shared by every function version with one CFG shape.

A function's *CFG shape* is its control flow with the instructions left
out: per block, in layout order, the block's name, its terminator's
opcode, whether that terminator is a conditional branch, and the layout
positions of its successors (:func:`cfg_shape`).  Dominators, natural
loops, reducibility and the gated-SSA path conditions depend on nothing
else, so :class:`CFGFacts` computes them once per shape, indexed by block
position.  Most scalar passes keep the CFG (on the twelve paper corpora
at scale 0.1, 65 of the 99 changed pipeline steps do), so the checkpoints
of one pipeline share a handful of shapes.

A function version binds the facts to its own blocks through the views
:class:`~repro.analysis.dominators.DominatorTree`,
:class:`~repro.analysis.loops.LoopInfo` and
:class:`~repro.gated.gates.GateAnalysis`;
:class:`~repro.analysis.manager.AnalysisManager` keeps one facts object
per shape.  Dominance is answered from dominator-tree interval numbers,
so :meth:`CFGFacts.dominates` is O(1).  Reducibility and loops are
computed on first use: the passes that only need dominators never pay
for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.instructions import Branch
from ..ir.module import Function
from .cfg import postorder_reversed, preorder

#: Per block, in layout order: ``(name, terminator opcode or None,
#: conditional branch?, successor positions)``.
Shape = Tuple[Tuple[str, Optional[str], bool, Tuple[int, ...]], ...]


def cfg_shape(function: Function) -> Shape:
    """The content key of ``function``'s control flow (see module docstring)."""
    blocks = function.blocks
    position = {block: index for index, block in enumerate(blocks)}
    shape = []
    for block in blocks:
        terminator = block.terminator
        if isinstance(terminator, Branch):
            shape.append((block.name, terminator.opcode, terminator.is_conditional,
                          tuple(position[target] for target in terminator.targets)))
        else:
            shape.append((block.name,
                          terminator.opcode if terminator is not None else None,
                          False, ()))
    return tuple(shape)


class LoopFacts:
    """One natural loop, by block position (see :class:`~repro.analysis.loops.Loop`)."""

    __slots__ = ("header", "blocks", "members", "latches", "parent", "children")

    def __init__(self, header: int):
        self.header = header
        #: Loop body in discovery order (the order loop views list it in).
        self.blocks: List[int] = [header]
        self.members: Set[int] = {header}
        self.latches: List[int] = []
        #: Index of the enclosing loop in :meth:`CFGFacts.loops`, or -1.
        self.parent = -1
        self.children: List[int] = []


class CFGFacts:
    """Dominators, loops, reducibility and a gate memo for one CFG shape.

    Every list is indexed by block position.  ``idom[b]`` is the
    immediate dominator of ``b`` (the entry maps to itself, an
    unreachable block to -1); ``children[b]`` lists the blocks ``b``
    immediately dominates in reverse postorder.  ``path_conditions`` is
    the shape's :class:`~repro.gated.gates.PathConditionMemo`, created by
    the first gate query (gate formulas name blocks by position, so every
    version of the shape can share them).
    """

    __slots__ = ("names", "opcodes", "conditional", "succs", "preds", "rpo",
                 "idom", "children", "_pre", "_post", "_reducible", "_loops",
                 "_loop_of", "path_conditions")

    def __init__(self, shape: Shape):
        self.names = [name for name, _, _, _ in shape]
        self.opcodes = [opcode for _, opcode, _, _ in shape]
        self.conditional = [conditional for _, _, conditional, _ in shape]
        self.succs = [succs for _, _, _, succs in shape]
        #: Predecessors in layout order, one entry per edge.
        self.preds: List[List[int]] = [[] for _ in shape]
        for block, succs in enumerate(self.succs):
            for successor in succs:
                self.preds[successor].append(block)
        self.rpo = postorder_reversed(0, self.succs.__getitem__) if shape else []
        self.idom = _immediate_dominators(self.rpo, self.preds)
        self.children: List[List[int]] = [[] for _ in shape]
        for block in self.rpo:
            parent = self.idom[block]
            if parent != block:
                self.children[parent].append(block)
        self._pre, self._post = _intervals(self.rpo, self.children, len(shape))
        self._reducible: Optional[bool] = None
        self._loops: Optional[List[LoopFacts]] = None
        self._loop_of: Dict[int, int] = {}
        self.path_conditions = None

    @classmethod
    def of(cls, function: Function) -> "CFGFacts":
        """The facts of ``function``'s shape, computed afresh (no sharing)."""
        return cls(cfg_shape(function))

    def dominates(self, a: int, b: int) -> bool:
        """Does position ``a`` dominate ``b``?  False if either is unreachable."""
        pre_a, pre_b = self._pre[a], self._pre[b]
        return 0 <= pre_a <= pre_b and self._post[b] <= self._post[a]

    def is_reducible(self) -> bool:
        """Is the shape's CFG reducible?  (T1/T2 interval reduction, computed once.)"""
        if self._reducible is None:
            self._reducible = _is_reducible(self.succs)
        return self._reducible

    def loops(self) -> List[LoopFacts]:
        """The natural loops, merged per header and nested (computed once)."""
        if self._loops is None:
            self._loops = self._find_loops()
        return self._loops

    def loop_of(self) -> Dict[int, int]:
        """Block position -> index of its innermost loop (absent outside loops)."""
        self.loops()
        return self._loop_of

    def _find_loops(self) -> List[LoopFacts]:
        reachable = set(self.rpo)
        by_header: Dict[int, LoopFacts] = {}
        for block, succs in enumerate(self.succs):
            if block not in reachable:
                continue
            for successor in succs:
                if self.dominates(successor, block):
                    # Back edge block -> successor.
                    loop = by_header.get(successor)
                    if loop is None:
                        loop = by_header[successor] = LoopFacts(successor)
                    loop.latches.append(block)
                    self._collect_body(loop, block)
        loops = list(by_header.values())
        # A loop's parent is the smallest other loop holding its header.
        for index, loop in enumerate(loops):
            best = -1
            for other, candidate in enumerate(loops):
                if other != index and loop.header in candidate.members and (
                        best < 0 or len(candidate.blocks) < len(loops[best].blocks)):
                    best = other
            loop.parent = best
            if best >= 0:
                loops[best].children.append(index)
        # Innermost loop of each block: inner loops are smaller and win.
        for index in sorted(range(len(loops)), key=lambda i: -len(loops[i].blocks)):
            for block in loops[index].blocks:
                self._loop_of[block] = index
        return loops

    def _collect_body(self, loop: LoopFacts, latch: int) -> None:
        """Add every block that reaches ``latch`` without the header."""
        stack = [latch]
        while stack:
            block = stack.pop()
            if block in loop.members:
                continue
            loop.members.add(block)
            loop.blocks.append(block)
            for pred in self.preds[block]:
                if pred not in loop.members:
                    stack.append(pred)


def _immediate_dominators(rpo: List[int], preds: List[List[int]]) -> List[int]:
    """Cooper–Harvey–Kennedy iterative immediate dominators."""
    idom = [-1] * len(preds)
    if not rpo:
        return idom
    index = [-1] * len(preds)
    for order, block in enumerate(rpo):
        index[block] = order
    idom[rpo[0]] = rpo[0]

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in rpo[1:]:
            new_idom = -1
            for pred in preds[block]:
                if idom[pred] < 0 or index[pred] < 0:
                    continue
                new_idom = pred if new_idom < 0 else intersect(new_idom, pred)
            if new_idom >= 0 and idom[block] != new_idom:
                idom[block] = new_idom
                changed = True
    return idom


def _intervals(rpo: List[int], children: List[List[int]], size: int
               ) -> Tuple[List[int], List[int]]:
    """Pre/post numbers of a dominator-tree walk (-1 for unreachable blocks)."""
    pre, post = [-1] * size, [-1] * size
    if not rpo:
        return pre, post
    clock = 0
    stack = [(rpo[0], iter(children[rpo[0]]))]
    pre[rpo[0]] = clock
    while stack:
        block, pending = stack[-1]
        child = next(pending, None)
        if child is None:
            clock += 1
            post[block] = clock
            stack.pop()
        else:
            clock += 1
            pre[child] = clock
            stack.append((child, iter(children[child])))
    return pre, post


def _is_reducible(succs: List[Tuple[int, ...]]) -> bool:
    """Iterative T1/T2 interval reduction on a copy of the edge set.

    Remove self-loops (T1) and merge nodes with a unique predecessor
    into that predecessor (T2); the CFG is reducible iff its reachable
    part collapses to a single node.
    """
    if not succs:
        return True
    blocks = preorder(0, succs.__getitem__)
    ids = {block: i for i, block in enumerate(blocks)}
    succ: Dict[int, Set[int]] = {i: set() for i in range(len(blocks))}
    pred: Dict[int, Set[int]] = {i: set() for i in range(len(blocks))}
    for block in blocks:
        for s in succs[block]:
            if s in ids:
                succ[ids[block]].add(ids[s])
                pred[ids[s]].add(ids[block])
    entry = 0
    alive = set(range(len(blocks)))
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for node in list(alive):
            # T1: remove self loop.
            if node in succ[node]:
                succ[node].discard(node)
                pred[node].discard(node)
                changed = True
            # T2: merge node into its unique predecessor.
            if node != entry and len(pred[node]) == 1:
                parent = next(iter(pred[node]))
                for s in succ[node]:
                    pred[s].discard(node)
                    if s != parent:
                        succ[parent].add(s)
                        pred[s].add(parent)
                succ[parent].discard(node)
                alive.discard(node)
                succ.pop(node, None)
                pred.pop(node, None)
                changed = True
    return len(alive) == 1


__all__ = ["CFGFacts", "LoopFacts", "Shape", "cfg_shape"]
