"""Sharing maximization across cycles: μ-node unification.

Plain hash-consing (``ValueGraph.maximize_sharing``) merges equal acyclic
terms, but two structurally equivalent loops are distinct cycles in the
graph and will never hash to the same node.  The paper's solution (§5.4)
is a simple unification procedure: pick pairs of μ-nodes, walk their
sub-graphs in parallel, optimistically assuming the pair equal, and if the
walk finds no structural disagreement merge every pair of nodes visited.
This is a coinductive (bisimulation-style) equality check, which is the
right notion of equality for the recursive stream equations μ-nodes
denote.

The walk is iterative (an explicit DFS stack): value graphs are as deep
as the SSA def-use chains that produced them, and unification runs inside
the normalization fixpoint, which must not depend on the Python recursion
limit.  Graph *construction* is the only remaining recursive consumer of
the configured recursion headroom.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .graph import ValueGraph


def unify(graph: ValueGraph, a: int, b: int,
          assumptions: Optional[Dict[Tuple[int, int], bool]] = None) -> Optional[Dict[int, int]]:
    """Try to prove two nodes equal up to cycle unrolling.

    Returns a substitution mapping node ids of ``b``'s side onto ``a``'s
    (for every pair visited), or ``None`` if the nodes differ.  The check
    assumes pairs already on the visit stack are equal, which is what
    makes equivalent cycles unify.

    The traversal is an explicit-stack DFS that visits argument pairs in
    order and records each mapping entry after its children (the same
    postorder the recursive formulation produced), so merge order — and
    with it which canonical node survives — is unchanged.
    """
    pending: Dict[Tuple[int, int], bool] = {} if assumptions is None else assumptions
    mapping: Dict[int, int] = {}

    # Stack entries: (x, y, post).  A pre-visit entry (post=False) checks
    # the pair and schedules its children; the matching post-visit entry
    # (post=True, already resolved) records the mapping once every child
    # pair has been proved equal.
    stack: List[Tuple[int, int, bool]] = [(a, b, False)]
    while stack:
        x, y, post = stack.pop()
        if post:
            mapping[y] = x
            continue
        x, y = graph.resolve(x), graph.resolve(y)
        if x == y:
            continue
        key = (x, y)
        if key in pending:
            continue
        node_x, node_y = graph.node(x), graph.node(y)
        if node_x.kind != node_y.kind or node_x.data != node_y.data:
            return None
        if len(node_x.args) != len(node_y.args):
            return None
        pending[key] = True
        stack.append((x, y, True))
        for arg_x, arg_y in zip(reversed(node_x.args), reversed(node_y.args)):
            stack.append((arg_x, arg_y, False))
    return mapping


def merge_cycles(graph: ValueGraph, roots: Optional[List[int]] = None,
                 max_pairs: int = 4000,
                 candidates: Optional[Set[int]] = None) -> int:
    """Merge equivalent μ-cycles.  Returns the number of nodes redirected.

    The procedure repeatedly picks two distinct μ-nodes with the same
    coarse structural signature, attempts :func:`unify`, and on success
    redirects one cycle onto the other.  ``max_pairs`` bounds the number
    of attempted unifications per call so pathological graphs cannot make
    validation quadratic-explosive.

    ``candidates``, when given, restricts the *initial* pair selection to
    pairs containing at least one candidate node — the incremental
    engine passes its dirty set here, since a unification that failed
    before can only succeed once something inside one of the cycles has
    changed.  As soon as a round merges anything the restriction is
    lifted, because merges reshape the graph around every μ.

    After a round that merged, hash-consing is restored incrementally: a
    temporary merge listener collects the stale parents of this call's own
    redirects and :meth:`~repro.vgraph.graph.ValueGraph.maximize_sharing_incremental`
    re-keys exactly those, so the call costs the μ sub-graphs and the
    merged region rather than the whole graph.  μ-nodes that became
    identical are left to the next unify round.

    Two hot spots the profile exposed are avoided: the μ population is
    collected from one reachability walk and carried across rounds
    (merging can only *shrink* it, so later rounds just re-resolve the
    survivors instead of re-walking the graph), and the structural
    signatures used for candidate grouping are seeded from the μ-nodes
    themselves — a node's signature depends only on its descendants, so
    the values agree exactly with a whole-graph computation while walking
    only the μ sub-graphs.
    """
    merged = 0
    mu_ids: Optional[List[int]] = None
    stale: Set[int] = set()

    def collect(old_root: int, new_root: int, stale_parents: Set[int]) -> None:
        stale.update(stale_parents)

    for _ in range(8):
        if candidates is not None:
            # A pair is only attempted when one side is a candidate, so
            # without any candidate μ there is nothing to do — checked
            # before the (linear) reachability walk below.
            candidates = {graph.resolve(c) for c in candidates}
            if not any(graph.node(c).kind == "mu" for c in candidates):
                return merged
        if mu_ids is None:
            if roots is not None:
                reachable = graph.reachable(roots)
                mu_ids = [n for n in reachable if graph.node(n).kind == "mu"]
            else:
                mu_ids = [node.id for node in graph.live_nodes() if node.kind == "mu"]
        else:
            # Rounds after the first: merging never creates μ-nodes, so
            # the surviving population is the previous one re-resolved.
            seen: Set[int] = set()
            survivors: List[int] = []
            for mu_id in mu_ids:
                resolved = graph.resolve(mu_id)
                if resolved in seen:
                    continue
                seen.add(resolved)
                if graph.node(resolved).kind == "mu":
                    survivors.append(resolved)
            mu_ids = survivors
        if len(mu_ids) < 2:
            return merged
        signatures = graph.signatures(rounds=3, roots=mu_ids)
        by_signature: Dict[int, List[int]] = {}
        for mu_id in mu_ids:
            resolved = graph.resolve(mu_id)
            by_signature.setdefault(signatures.get(resolved, 0), []).append(resolved)

        attempts = 0
        round_merged = 0
        for group in by_signature.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if attempts >= max_pairs:
                        break
                    a, b = graph.resolve(group[i]), graph.resolve(group[j])
                    if a == b:
                        continue
                    if candidates is not None and a not in candidates and b not in candidates:
                        continue
                    attempts += 1
                    mapping = unify(graph, a, b)
                    if mapping is None:
                        continue
                    graph.add_listener(collect)
                    try:
                        for source, target in mapping.items():
                            if graph.redirect(source, target):
                                round_merged += 1
                    finally:
                        graph.remove_listener(collect)
        if round_merged == 0:
            return merged
        merged += round_merged
        candidates = None
        graph.maximize_sharing_incremental(stale)
        stale.clear()
    return merged


__all__ = ["unify", "merge_cycles"]
