"""Value-graph node representation.

A value graph is a (possibly cyclic) term graph.  Each node has a *kind*,
an optional hashable *data* payload, and an ordered list of argument node
ids.  The graph itself (storage, hash-consing, redirection) lives in
:mod:`repro.vgraph.graph`; this module defines the node record and the
vocabulary of kinds.

Node kinds
----------
======================  =========================================  =============================
kind                    data                                       args
======================  =========================================  =============================
``const``               ``(value, type string)``                   —
``undef``               type string                                —
``param``               argument index                             —
``global``              global name                                —
``alloca``              allocation-site name                       —
``mem0``                —                                          —  (initial memory state)
``binop``               opcode                                     ``[lhs, rhs]``
``icmp``                predicate                                  ``[lhs, rhs]``
``cast``                ``(opcode, result type string)``           ``[value]``
``gep``                 —                                          ``[pointer, index...]``
``not``                 —                                          ``[condition]``
``phi``                 —                                          ``[c1, v1, c2, v2, ...]``
``mu``                  —                                          ``[initial, iteration]``
``eta``                 —                                          ``[exit condition, value]``
``load``                —                                          ``[pointer, memory]``
``store``               —                                          ``[value, pointer, memory]``
``call``                ``(callee, reads memory?, writes memory?)``  ``[arg..., memory?]``
``callmem``             —                                          ``[call]``  (memory after call)
``reach``               block name                                 —  (opaque gate fallback)
======================  =========================================  =============================

The ``phi`` node is the paper's general gated φ: a list of branches, each
a (condition, value) pair whose conditions are mutually exclusive.  The
``mu``/``eta`` nodes are the Gated-SSA loop constructs of §3.3.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Kinds whose nodes are leaves (no arguments).
LEAF_KINDS = frozenset({"const", "undef", "param", "global", "alloca", "mem0", "reach"})

#: Kinds that represent a memory state rather than a first-class value.
MEMORY_KINDS = frozenset({"mem0", "store", "callmem"})

#: Kinds for which the node may participate in a cycle (created as
#: placeholders, patched afterwards).
CYCLIC_KINDS = frozenset({"mu"})

#: Pure operator kinds, safe to freely duplicate / commute with η.
PURE_OP_KINDS = frozenset({"binop", "icmp", "cast", "gep", "not", "phi"})


class VNode:
    """One node of a value graph.

    Nodes are owned by a :class:`~repro.vgraph.graph.ValueGraph`; their
    ``args`` store node *ids*, which must be resolved through the graph
    (redirections happen during normalization).
    """

    __slots__ = ("id", "kind", "data", "args")

    def __init__(self, node_id: int, kind: str, data=None, args: Optional[List[int]] = None):
        self.id = node_id
        self.kind = kind
        self.data = data
        self.args: List[int] = list(args) if args else []

    def key(self, resolved_args: Tuple[int, ...]) -> Tuple:
        """Hash-consing key given already-resolved argument ids."""
        return (self.kind, self.data, resolved_args)

    def is_constant(self) -> bool:
        """Is this a ``const`` node?"""
        return self.kind == "const"

    def is_true(self) -> bool:
        """Is this the boolean constant ``true``?"""
        return self.kind == "const" and self.data == (1, "i1")

    def is_false(self) -> bool:
        """Is this the boolean constant ``false``?"""
        return self.kind == "const" and self.data == (0, "i1")

    def phi_branches(self) -> List[Tuple[int, int]]:
        """Branches of a ``phi`` node as (condition id, value id) pairs."""
        assert self.kind == "phi"
        return [(self.args[i], self.args[i + 1]) for i in range(0, len(self.args), 2)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        data = f" {self.data!r}" if self.data is not None else ""
        return f"<VNode #{self.id} {self.kind}{data} args={self.args}>"


__all__ = ["VNode", "LEAF_KINDS", "MEMORY_KINDS", "CYCLIC_KINDS", "PURE_OP_KINDS"]
