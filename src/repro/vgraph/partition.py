"""Hopcroft-style partition refinement for sharing maximization.

The alternative cycle-matching algorithm the paper discusses in §5.4:
instead of pairwise unification, compute the coarsest partition of graph
nodes that is *stable* — two nodes are in the same class only if they have
the same kind/data and their corresponding arguments are classmates.  The
stable partition is exactly bisimulation equivalence (the same relation
:func:`repro.vgraph.sharing.unify` decides pairwise), computed globally in
O(n · rounds); merging each class into one representative maximizes
sharing across cycles.

The paper found this performs about the same as the simple unification
algorithm, and that running unification first with partitioning as a
fallback is marginally better than either alone — the validator's
``matcher="combined"`` mode reproduces that strategy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .graph import ValueGraph


def refine_partition(graph: ValueGraph, roots: Optional[List[int]] = None,
                     max_rounds: int = 64) -> Dict[int, int]:
    """Compute the stable partition; returns node id → class representative."""
    if roots is not None:
        node_ids = sorted(graph.reachable(roots))
    else:
        node_ids = sorted(node.id for node in graph.live_nodes())

    # Initial classes: (kind, data, arity).  The graph does not change
    # during refinement, so every node's args are resolved once.
    class_of: Dict[int, int] = {}
    interner: Dict[Tuple, int] = {}
    args_of: Dict[int, Tuple[int, ...]] = {}
    for node_id in node_ids:
        node = graph.node(node_id)
        key = (node.kind, node.data, len(node.args))
        class_of[node_id] = interner.setdefault(key, len(interner))
        args_of[node_id] = tuple(graph.resolve(arg) for arg in node.args)

    for _ in range(max_rounds):
        classes = len(interner)
        interner = {}
        updated: Dict[int, int] = {}
        for node_id in node_ids:
            key = (
                class_of[node_id],
                tuple(class_of.get(arg, -1) for arg in args_of[node_id]),
            )
            updated[node_id] = interner.setdefault(key, len(interner))
        class_of = updated
        # A round only splits classes (each key carries the node's old
        # class), so an unchanged class count means a stable partition.
        if len(interner) == classes:
            break

    representatives: Dict[int, int] = {}
    result: Dict[int, int] = {}
    for node_id in node_ids:
        cls = class_of[node_id]
        representative = representatives.setdefault(cls, node_id)
        result[node_id] = representative
    return result


def merge_by_partition(graph: ValueGraph, roots: Optional[List[int]] = None) -> int:
    """Merge every node into its partition representative.  Returns merge count."""
    mapping = refine_partition(graph, roots)
    merged = 0
    for node_id, representative in mapping.items():
        if node_id != representative and graph.redirect(node_id, representative):
            merged += 1
    if merged:
        graph.maximize_sharing()
    return merged


__all__ = ["refine_partition", "merge_by_partition"]
