"""Gate (path-condition) computation for Gated SSA construction.

A *gate* is the boolean condition under which control flows along a CFG
edge, expressed in terms of the branch conditions encountered on the way.
Gates are what turn ordinary φ-nodes into referentially transparent gated
φ-nodes (§3.2 of the paper): ``x3 = φ(x1, x2)`` becomes
``x3 = φ(c → x1, ¬c → x2)``.

The analysis produces small symbolic formulas (:class:`GateExpr`); the
value-graph builder later translates them into graph nodes.  Formulas are
computed over the CFG *with back edges removed*, which is a DAG for
reducible functions, using memoized path conditions:

* ``pc(S) = true`` for the region start ``S`` (the immediate dominator of
  the join for φ-gating, the loop header for loop-exit conditions),
* ``pc(X) = ⋁ over forward-edge predecessors P of (pc(P) ∧ econd(P→X))``.

If a path escapes the region (a predecessor that is not dominated by the
region start), the analysis falls back to an opaque ``Reached(block)``
condition.  This keeps construction total; such conditions only match if
both functions produce literally the same structure.

Formulas mention no IR value: a :class:`CondGate` names its branch by
block *position*, and the builder reads the condition from its own
version's block at that position.  A formula therefore depends only on
the CFG shape (:mod:`repro.analysis.shape`), and the
:class:`PathConditionMemo` lives on the shape's
:class:`~repro.analysis.shape.CFGFacts`: every version with that shape —
most checkpoints of one pipeline — reuses the conditions the first one
computed.  :class:`GateAnalysis` is the per-version view that maps blocks
to positions.

A formula is a DAG: ``pc(P)`` is shared by every successor of ``P``, so
along a chain of diamonds the formula has linearly many distinct nodes
but exponentially many paths.  A caller that asks for many path
conditions passes the shape's memo (:attr:`GateAnalysis.path_conditions`)
so every query from the same region start extends one shared DAG instead
of rebuilding it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.dominators import DominatorTree
from ..analysis.loops import Loop
from ..ir.module import BasicBlock, Function
from ..ir.values import Value


class GateExpr:
    """Base class of gate formulas."""


class TrueGate(GateExpr):
    """The always-true gate."""

    def __repr__(self) -> str:
        return "true"


class FalseGate(GateExpr):
    """The never-true gate (used for statically impossible edges)."""

    def __repr__(self) -> str:
        return "false"


class CondGate(GateExpr):
    """The condition of the branch ending the block at position ``block``, possibly negated."""

    __slots__ = ("block", "negated")

    def __init__(self, block: int, negated: bool = False):
        self.block = block
        self.negated = negated

    def __repr__(self) -> str:
        prefix = "!" if self.negated else ""
        return f"{prefix}cond@{self.block}"


class ReachedGate(GateExpr):
    """Opaque "control reached this block" condition (fallback)."""

    __slots__ = ("block_name",)

    def __init__(self, block_name: str):
        self.block_name = block_name

    def __repr__(self) -> str:
        return f"reached({self.block_name})"


class AndGate(GateExpr):
    """Conjunction of gates."""

    __slots__ = ("operands",)

    def __init__(self, operands: List[GateExpr]):
        self.operands = operands

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(op) for op in self.operands) + ")"


class OrGate(GateExpr):
    """Disjunction of gates."""

    __slots__ = ("operands",)

    def __init__(self, operands: List[GateExpr]):
        self.operands = operands

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(op) for op in self.operands) + ")"


TRUE = TrueGate()
FALSE = FalseGate()


def make_and(operands: List[GateExpr]) -> GateExpr:
    """Conjunction with the obvious simplifications."""
    flat: List[GateExpr] = []
    for op in operands:
        if isinstance(op, TrueGate):
            continue
        if isinstance(op, FalseGate):
            return FALSE
        if isinstance(op, AndGate):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndGate(flat)


def make_or(operands: List[GateExpr]) -> GateExpr:
    """Disjunction with the obvious simplifications."""
    flat: List[GateExpr] = []
    for op in operands:
        if isinstance(op, FalseGate):
            continue
        if isinstance(op, TrueGate):
            return TRUE
        if isinstance(op, OrGate):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrGate(flat)


class PathConditionMemo:
    """Path conditions shared by every query against one CFG shape.

    One table per region start, from block position to its path
    condition.  Only conditions that do not depend on where a query
    entered are stored: a ``Reached`` fallback for a forward-edge cycle
    depends on which block the query was computing when it met the cycle,
    so such results (and everything built on them) stay local to their
    query.  ``computed`` counts the conditions actually computed, memo
    hits excluded.
    """

    __slots__ = ("_tables", "computed")

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[int, GateExpr]] = {}
        self.computed = 0

    def table(self, start: int) -> Dict[int, GateExpr]:
        """The shared conditions relative to position ``start`` (``start`` maps to true)."""
        table = self._tables.get(start)
        if table is None:
            table = self._tables[start] = {start: TRUE}
        return table


class GateAnalysis:
    """Edge conditions and region path conditions of one function version.

    A view: the version's :class:`~repro.analysis.shape.CFGFacts` (through
    ``dom``) bound to its blocks.  Formulas name blocks by position, so
    they are valid for every version of the shape.
    """

    def __init__(self, function: Function, dom: Optional[DominatorTree] = None):
        self.function = function
        self.dom = dom or DominatorTree.compute(function)
        self.facts = self.dom.facts

    @property
    def path_conditions(self) -> PathConditionMemo:
        """The memo of this CFG shape, shared by every version bound to it."""
        memo = self.facts.path_conditions
        if memo is None:
            memo = self.facts.path_conditions = PathConditionMemo()
        return memo

    def branch_condition(self, gate: CondGate) -> Value:
        """The IR value ``gate`` names in this version."""
        return self.dom.blocks[gate.block].terminator.condition

    # -- edges -------------------------------------------------------------
    def edge_condition(self, source: BasicBlock, target: BasicBlock) -> GateExpr:
        """The condition attached to the edge ``source → target``."""
        positions = self.dom.positions
        return self._edge(positions[source], positions[target])

    def _edge(self, source: int, target: int) -> GateExpr:
        facts = self.facts
        if facts.opcodes[source] != "br":
            return FALSE
        targets = facts.succs[source]
        if not facts.conditional[source]:
            return TRUE if targets[0] == target else FALSE
        true_target, false_target = targets
        if true_target == target and false_target == target:
            return TRUE
        if true_target == target:
            return CondGate(source, negated=False)
        if false_target == target:
            return CondGate(source, negated=True)
        return FALSE

    # -- path conditions ------------------------------------------------------
    def path_condition(self, start: BasicBlock, block: BasicBlock,
                       memo: Optional[PathConditionMemo] = None) -> GateExpr:
        """Condition for control to reach ``block`` from ``start``.

        Computed over forward edges only (back edges removed).  ``start``
        itself gets the condition *true*.  With a ``memo`` (normally
        :attr:`path_conditions`), conditions computed by earlier queries
        from the same ``start`` are reused and this query's are kept for
        later ones; without one, the query memoizes only within itself.
        """
        if memo is None:
            memo = PathConditionMemo()
        positions = self.dom.positions
        start_index = positions[start]
        shared = memo.table(start_index)
        target = positions[block]
        known = shared.get(target)
        if known is not None:
            return known
        facts = self.facts
        preds, names, dominates, edge = facts.preds, facts.names, facts.dominates, self._edge
        # Results that depend on this query's entry point (see
        # PathConditionMemo); reused within the query only.
        local: Dict[int, GateExpr] = {}
        visiting: set = set()

        def compute(current: int) -> Tuple[GateExpr, bool]:
            """``current``'s condition and whether it depends on the entry."""
            cached = shared.get(current)
            if cached is not None:
                return cached, False
            cached = local.get(current)
            if cached is not None:
                return cached, True
            if current in visiting:
                # A forward-edge cycle should not exist in a reducible CFG;
                # fall back to an opaque condition rather than diverging.
                return ReachedGate(names[current]), True
            memo.computed += 1
            visiting.add(current)
            entry_dependent = False
            disjuncts: List[GateExpr] = []
            for pred in preds[current]:
                if dominates(current, pred):
                    continue  # back edge
                if not dominates(start_index, pred):
                    # Path escaping the region: opaque fallback.
                    disjuncts.append(
                        make_and([ReachedGate(names[pred]), edge(pred, current)])
                    )
                    continue
                condition, dependent = compute(pred)
                entry_dependent = entry_dependent or dependent
                disjuncts.append(make_and([condition, edge(pred, current)]))
            visiting.discard(current)
            result = make_or(disjuncts)
            (local if entry_dependent else shared)[current] = result
            return result, entry_dependent

        return compute(target)[0]

    # -- gating for φ-nodes --------------------------------------------------
    def phi_gates(self, block: BasicBlock, memo: Optional[PathConditionMemo] = None
                  ) -> List[Tuple[BasicBlock, GateExpr]]:
        """Gate of each incoming edge of a (non-loop-header) join block.

        Conditions are relative to the block's immediate dominator, which is
        the closest "branch point" all incoming paths share.  ``memo`` is
        passed on to :meth:`path_condition`.
        """
        start = self.dom.idom(block) or self.function.entry
        blocks = self.dom.blocks
        index = self.dom.positions[block]
        gates: List[Tuple[BasicBlock, GateExpr]] = []
        for pred in self.facts.preds[index]:
            gate = make_and(
                [self.path_condition(start, blocks[pred], memo), self._edge(pred, index)]
            )
            gates.append((blocks[pred], gate))
        return gates

    # -- loop exit conditions -----------------------------------------------------
    def loop_exit_condition(self, loop: Loop,
                            memo: Optional[PathConditionMemo] = None) -> GateExpr:
        """Condition (relative to the loop header, per iteration) that the loop exits.

        The disjunction over every exit edge of "control reaches the exiting
        block this iteration and takes the exit edge".  For the canonical
        ``while (b)`` loop this is simply ``¬b``.  ``memo`` is passed on
        to :meth:`path_condition`.
        """
        disjuncts: List[GateExpr] = []
        for inside, outside in loop.exit_edges():
            path = self.path_condition(loop.header, inside, memo)
            disjuncts.append(make_and([path, self.edge_condition(inside, outside)]))
        return make_or(disjuncts)


__all__ = [
    "GateExpr",
    "TrueGate",
    "FalseGate",
    "CondGate",
    "ReachedGate",
    "AndGate",
    "OrGate",
    "TRUE",
    "FALSE",
    "make_and",
    "make_or",
    "PathConditionMemo",
    "GateAnalysis",
]
