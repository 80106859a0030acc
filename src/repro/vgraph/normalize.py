"""The normalization engine.

Applies the rewrite rules to every node reachable from the roots, then
maximizes sharing (hash-consing plus μ-cycle matching), and repeats until
either the goal node pairs have merged or nothing changes any more (§4 of
the paper).  Checking the goal after every round keeps the best case
cheap: when the optimizer did little, one or two rounds suffice — "the
amount of work done by the validator is proportional to the number of
transformations performed by the optimizer" (§4.1).

Two engines implement the fixpoint loop:

``worklist`` (the default)
    An incremental engine.  Round one seeds a worklist with every node
    reachable from the roots; every later round is seeded only by the
    *dirty set* — the parents of nodes redirected or merged in the
    previous round (delivered by the graph's merge-notification hook),
    closed transitively over the reverse use-edges so that rules whose
    applicability depends on a whole sub-graph (η-invariance, alias
    walks) still see every affected ancestor.  Rules are dispatched
    through the kind index of :func:`repro.vgraph.rules.build_rule_index`
    rather than tried one by one, and sharing maximization, μ-cycle
    matching and φ-branch sorting all consume the same dirty set.  This
    realizes the paper's proportionality claim structurally: a validation
    that needed few rewrites touches few nodes after the first round.

    No pass inside the loop rescans the whole graph after round one.
    Sharing is incremental in *every* round, round one included: the
    builder never redirects, so a fresh graph's cons table already holds
    each non-μ node once, and the merge listener is registered before
    round one.  :func:`~repro.vgraph.sharing.merge_cycles` re-keys only
    the stale parents of its own redirects, φ-branch sorting renders
    sub-graphs only to break signature ties, and the boolean rules share
    one classification memo per graph between merges.

``fullscan``
    The original engine: every round re-scans every reachable node
    against every enabled rule and re-hash-conses the whole graph with
    :meth:`~repro.vgraph.graph.ValueGraph.maximize_sharing`.  Kept as the
    reference for the engine-parity tests and guards.

Both engines produce the same verdicts; the worklist engine just invokes
far fewer rules to get there (see ``repro.bench.experiments.engine_comparison``).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import MergeListener, ValueGraph
from .partition import merge_by_partition
from .rules import ALL_RULE_GROUPS, Rule, build_rule_index, rules_for
from .sharing import merge_cycles

#: Valid values for the ``engine`` parameter.
ENGINES = ("worklist", "fullscan")


class NormalizationStats:
    """Counters describing one normalization run (reported by the validator)."""

    def __init__(self) -> None:
        #: Number of rule/sharing rounds executed.
        self.iterations = 0
        #: Number of successful rule applications.
        self.rewrites = 0
        #: Number of nodes merged by hash-consing.
        self.sharing_merges = 0
        #: Number of nodes merged by μ-cycle unification.
        self.cycle_merges = 0
        #: Number of nodes merged by partition refinement (fallback matcher).
        self.partition_merges = 0
        #: Whether the goal pairs were already equal before any rewriting.
        self.trivially_equal = False
        #: Number of nodes pushed onto the rewrite worklist (worklist engine).
        self.worklist_pushes = 0
        #: Number of dispatches where the kind index had candidate rules.
        self.index_hits = 0
        #: Number of individual rule invocations (both engines count this;
        #: the worklist engine's count is the ISSUE's headline metric).
        self.rule_invocations = 0
        #: Goal-directed runs only: did the loop end at a *natural*
        #: fixpoint (every goal merged, or a round applied no rewrite)
        #: rather than by exhausting ``max_iterations``?  Chain validation
        #: trusts read-off rejections only when this holds (not exported
        #: by :meth:`as_dict` — it qualifies a run, it is not work done).
        self.reached_fixpoint = False

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (handy for reports and benchmarks)."""
        return {
            "iterations": self.iterations,
            "rewrites": self.rewrites,
            "sharing_merges": self.sharing_merges,
            "cycle_merges": self.cycle_merges,
            "partition_merges": self.partition_merges,
            "trivially_equal": int(self.trivially_equal),
            "worklist_pushes": self.worklist_pushes,
            "index_hits": self.index_hits,
            "rule_invocations": self.rule_invocations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NormalizationStats {self.as_dict()}>"


class Normalizer:
    """Drives rewriting and sharing maximization over a shared value graph.

    Parameters
    ----------
    graph:
        The shared :class:`ValueGraph`.
    rule_groups:
        Which rule groups to enable (see :data:`repro.vgraph.rules.RULE_GROUPS`).
        The paper's ablations (Figures 6–8) are produced by varying this.
    matcher:
        Cycle-matching strategy: ``"simple"`` (pairwise unification),
        ``"partition"`` (Hopcroft-style refinement) or ``"combined"``
        (unification first, partitioning as a fallback) — the default, as
        in the paper (§5.4).
    max_iterations:
        Upper bound on rewrite/sharing rounds.
    engine:
        ``"worklist"`` (incremental, the default) or ``"fullscan"``
        (re-scan everything every round; the original engine).
    """

    def __init__(
        self,
        graph: ValueGraph,
        rule_groups: Iterable[str] = ALL_RULE_GROUPS,
        matcher: str = "combined",
        max_iterations: int = 40,
        engine: str = "worklist",
    ):
        if matcher not in ("simple", "partition", "combined"):
            raise ValueError(f"unknown matcher {matcher!r}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} (known: {ENGINES})")
        self.graph = graph
        self.rule_groups = tuple(rule_groups)
        self.rules: List[Rule] = rules_for(self.rule_groups)
        self.rule_index = build_rule_index(self.rule_groups)
        self.matcher = matcher
        self.max_iterations = max_iterations
        self.engine = engine

    # -- public API ------------------------------------------------------------
    def normalize_until_equal(self, goal_pairs: Sequence[Tuple[Optional[int], Optional[int]]]
                              ) -> Tuple[bool, NormalizationStats]:
        """Normalize until every goal pair denotes the same node.

        ``goal_pairs`` are pairs of node ids (or ``None``); a pair with a
        single ``None`` can never match.  Returns ``(matched, stats)``.
        """
        stats = NormalizationStats()
        if self._pairs_equal(goal_pairs):
            stats.trivially_equal = True
            stats.reached_fixpoint = True
            return True, stats

        roots = [node for pair in goal_pairs for node in pair if node is not None]
        if self._run_rounds(roots, stats, goal_pairs=goal_pairs):
            return True, stats

        # Fallback matcher: the paper reports that partitioning after the
        # simple algorithm fails is slightly better than either alone.
        if self.matcher == "combined":
            stats.partition_merges += merge_by_partition(self.graph, roots)
            if self._pairs_equal(goal_pairs):
                return True, stats
        return False, stats

    def normalize(self, roots: Sequence[int]) -> NormalizationStats:
        """Normalize the sub-graph under ``roots`` to a fixpoint (no goal)."""
        stats = NormalizationStats()
        self._run_rounds(list(roots), stats, goal_pairs=None)
        return stats

    # -- the fixpoint loop (both engines, goal-directed or not) ------------------
    def _run_rounds(self, roots: List[int], stats: NormalizationStats,
                    goal_pairs: Optional[Sequence[Tuple[Optional[int], Optional[int]]]] = None,
                    ) -> bool:
        """Run rewrite/sharing rounds; returns whether the goal pairs merged.

        With ``goal_pairs`` (validation) a round also prunes unobservable
        stores, checks the goal after every round, and stops once a round
        applied no rewrite.  Without (plain ``normalize``) the loop runs
        until neither rewrites nor merges occur.

        The ``worklist`` engine seeds round one from everything reachable
        and every later round from the dirty set the graph's merge
        notifications collected, closed over reverse use-edges; μ-cycle
        matching and φ-branch sorting consume the same dirty set, and
        sharing re-keys only the dirty nodes in every round.  The
        ``fullscan`` engine re-scans everything every round.
        """
        incremental = self.engine == "worklist"
        dirty: Set[int] = set()
        on_merge: Optional[MergeListener] = None
        if incremental:
            def on_merge(old_root: int, new_root: int, stale_parents: Set[int]) -> None:
                dirty.update(stale_parents)
                dirty.add(new_root)

            self.graph.add_listener(on_merge)
        try:
            scope: Optional[Set[int]] = None  # None ⇒ round one: seed everything
            for _ in range(self.max_iterations):
                stats.iterations += 1
                candidates: Optional[Set[int]] = None
                if incremental:
                    seeds = set(self.graph.reachable(roots)) if scope is None else scope
                    rewrites, touched = self._apply_rules_worklist(seeds, stats)
                    if scope is not None:
                        candidates = touched | dirty
                else:
                    rewrites = self._apply_rules(roots, stats)
                rewrites += self._sort_phi_branches(roots, candidates=candidates)
                if goal_pairs is not None and "loadstore" in self.rule_groups:
                    rewrites += self._prune_unobservable_stores(roots)
                stats.rewrites += rewrites
                if incremental:
                    merges = self.graph.maximize_sharing_incremental(set(dirty))
                else:
                    merges = self.graph.maximize_sharing()
                stats.sharing_merges += merges
                if self.matcher in ("simple", "combined"):
                    cycle_candidates = (touched | dirty) if candidates is not None else None
                    cycle = merge_cycles(self.graph, roots, candidates=cycle_candidates)
                    stats.cycle_merges += cycle
                    merges += cycle
                if self.matcher == "partition":
                    partition = merge_by_partition(self.graph, roots)
                    stats.partition_merges += partition
                    merges += partition
                if goal_pairs is not None:
                    if self._pairs_equal(goal_pairs):
                        stats.reached_fixpoint = True
                        return True
                    if rewrites == 0:
                        stats.reached_fixpoint = True
                        break
                elif rewrites == 0 and merges == 0:
                    break
                if incremental:
                    scope = self._dirty_closure(dirty)
                    dirty.clear()
        finally:
            if on_merge is not None:
                self.graph.remove_listener(on_merge)
        return False

    def _dirty_closure(self, dirty: Set[int]) -> Set[int]:
        """The dirty set closed transitively over reverse use-edges.

        Rules such as η-invariance inspect whole sub-graphs, so a change
        deep inside a term can enable a rewrite arbitrarily far up; the
        closure re-examines every ancestor of a changed node.  μ-cycles
        make a μ-node a transitive parent of its own body, so loop
        headers are automatically re-examined when anything in the loop
        changes.  The closure is proportional to the affected region, not
        to the graph.
        """
        closure: Set[int] = set()
        stack = [self.graph.resolve(node_id) for node_id in dirty]
        while stack:
            node_id = stack.pop()
            if node_id in closure:
                continue
            closure.add(node_id)
            for parent in self.graph.parents(node_id):
                if parent not in closure:
                    stack.append(parent)
        return closure

    def _apply_rules_worklist(self, seeds: Set[int],
                              stats: NormalizationStats) -> Tuple[int, Set[int]]:
        """One worklist pass: each seed is dispatched through the kind index.

        Nodes manufactured by a successful rewrite (and the replacement
        itself) join the current pass; everything else invalidated by the
        rewrite reaches the next round through the merge notifications.
        Returns ``(rewrites, touched)`` where ``touched`` is the set of
        canonical ids examined (the φ-sorting/cycle-matching candidates).
        """
        applied = 0
        touched: Set[int] = set()
        queue = deque(sorted(seeds))
        stats.worklist_pushes += len(queue)
        if not self.rule_index:
            touched.update(self.graph.resolve(node_id) for node_id in queue)
            return 0, touched
        while queue:
            node_id = self.graph.resolve(queue.popleft())
            if node_id in touched:
                continue
            touched.add(node_id)
            node = self.graph.node(node_id)
            rules = self.rule_index.get(node.kind)
            if not rules:
                continue
            stats.index_hits += 1
            for rule in rules:
                stats.rule_invocations += 1
                watermark = self.graph.next_id
                replacement = rule(self.graph, node)
                if replacement is None:
                    continue
                if self.graph.redirect(node_id, replacement):
                    applied += 1
                    created = range(watermark, self.graph.next_id)
                    queue.append(self.graph.resolve(replacement))
                    queue.extend(created)
                    stats.worklist_pushes += 1 + len(created)
                    break
        return applied, touched

    # -- internals --------------------------------------------------------------
    def _pairs_equal(self, goal_pairs: Sequence[Tuple[Optional[int], Optional[int]]]) -> bool:
        for left, right in goal_pairs:
            if left is None and right is None:
                continue
            if left is None or right is None:
                return False
            if not self.graph.same(left, right):
                return False
        return True

    def _apply_rules(self, roots: List[int], stats: NormalizationStats) -> int:
        if not self.rules:
            return 0
        applied = 0
        for node_id in sorted(self.graph.reachable(roots)):
            node_id = self.graph.resolve(node_id)
            node = self.graph.node(node_id)
            for rule in self.rules:
                stats.rule_invocations += 1
                replacement = rule(self.graph, node)
                if replacement is None:
                    continue
                if self.graph.redirect(node_id, replacement):
                    applied += 1
                    break
        return applied

    def _prune_unobservable_stores(self, roots: List[int]) -> int:
        """Drop stores to local allocations that nothing can ever read.

        A store to an ``alloca`` is observable only through loads (or
        memory-reading calls) inside the function — the allocation is dead
        once the function returns.  If no load or call argument reachable
        from the roots may alias the stored-to allocation, the store can be
        removed from every memory chain.  This is the graph-level mirror of
        dead-store elimination on non-escaping locals and is required to
        validate DSE (and the ``*t = 42`` store of the paper's §4.2
        example).
        """
        pruned = 0
        for store_id in unobservable_stores(self.graph, roots):
            store = self.graph.node(store_id)
            if store.kind != "store":
                continue
            if self.graph.redirect(store_id, store.args[2]):
                pruned += 1
        return pruned

    def _sort_phi_branches(self, roots: List[int],
                           candidates: Optional[Set[int]] = None) -> int:
        """Order φ branches canonically (by structural signature).

        This is part of the comparison machinery rather than a rewrite rule
        (the paper sorts branches before the syntactic equality check), so
        it runs regardless of which rule groups are enabled.  ``candidates``
        restricts the φ-nodes considered (the incremental engine passes its
        dirty set); the signatures themselves are always computed from the
        roots so sort keys stay globally consistent.

        Branches sort by ``(signature(cond), signature(value))``.  Only
        branches that tie on that pair are rendered with
        :meth:`~repro.vgraph.graph.ValueGraph.format_node` to break the
        tie; untied branches never compare past the pair, so the order is
        the one the four-part key ``(sig, sig, render, render)`` gives.
        """
        if candidates is not None:
            phi_ids = sorted({self.graph.resolve(node_id) for node_id in candidates})
            phi_ids = [node_id for node_id in phi_ids
                       if self.graph.node(node_id).kind == "phi"]
            if not phi_ids:
                return 0
            # A node's iterated hash depends only on its descendants, all
            # of which are reachable from the φ itself — so signatures
            # seeded from the dirty φs agree exactly with the global
            # computation while touching only the affected sub-graphs.
            signature_roots: List[int] = phi_ids
        else:
            phi_ids = list(self.graph.reachable(roots))
            signature_roots = roots
        signatures = self.graph.signatures(rounds=4, roots=signature_roots)
        changed = 0
        for node_id in phi_ids:
            node = self.graph.node(node_id)
            if node.kind != "phi" or len(node.args) <= 2:
                continue
            branches = node.phi_branches()
            ordered = self._ordered_branches(branches, signatures)
            if ordered != branches:
                replacement = self.graph.phi(ordered)
                if self.graph.redirect(node_id, replacement):
                    changed += 1
        return changed

    def _ordered_branches(self, branches: List[Tuple[int, int]],
                          signatures: Dict[int, int]) -> List[Tuple[int, int]]:
        """``branches`` in canonical order (see :meth:`_sort_phi_branches`)."""
        resolve = self.graph.resolve
        pairs = [(signatures.get(resolve(condition), 0),
                  signatures.get(resolve(value), 0))
                 for condition, value in branches]
        counts = Counter(pairs)
        keys = []
        for pair, (condition, value) in zip(pairs, branches):
            if counts[pair] > 1:
                keys.append(pair + (self.graph.format_node(condition, max_depth=3),
                                    self.graph.format_node(value, max_depth=3)))
            else:
                keys.append(pair)
        order = sorted(range(len(branches)), key=keys.__getitem__)
        return [branches[index] for index in order]


def unobservable_stores(graph: ValueGraph, roots: Sequence[int]) -> List[int]:
    """Stores to local allocations nothing reachable from ``roots`` can read.

    The read-only analysis behind the normalizer's dead-store pruning: a
    store to an ``alloca`` whose address never escapes (through a call
    argument or a stored pointer value) and whose allocation is never
    loaded within the reachable sub-graph is observable to nobody.  The
    verdict is *root-scoped* — the same graph can hold a store that is
    dead under one root set and live under a larger one — which is
    exactly why chain validation re-runs this per pair before trusting a
    read-off rejection (see ``repro.validator.validate.validate_chain``).
    """

    def base_object(node_id: int) -> int:
        current = graph.resolve(node_id)
        node = graph.node(current)
        while node.kind == "gep":
            current = graph.resolve(node.args[0])
            node = graph.node(current)
        return current

    reachable = graph.reachable(roots)
    loaded_bases = set()
    escape_roots: List[int] = []
    store_nodes: List[int] = []
    for node_id in reachable:
        node = graph.node(node_id)
        if node.kind == "load":
            loaded_bases.add(base_object(node.args[0]))
        elif node.kind == "call":
            # The allocation's address may escape through any argument.
            escape_roots.extend(node.args)
        elif node.kind == "store":
            store_nodes.append(node_id)
            # Storing a pointer publishes it: the *value* operand escapes.
            escape_roots.append(node.args[0])

    # An allocation whose address was never passed to a call nor stored
    # into memory can only be read through loads whose pointer is a GEP
    # chain rooted at the allocation itself.
    escaped = {
        node_id
        for node_id in graph.reachable(escape_roots)
        if graph.node(node_id).kind == "alloca"
    }

    dead: List[int] = []
    for store_id in store_nodes:
        store = graph.node(store_id)
        if store.kind != "store":
            continue
        base = base_object(store.args[1])
        if graph.node(base).kind != "alloca":
            continue
        if base in escaped or base in loaded_bases:
            continue
        dead.append(store_id)
    return dead


__all__ = ["Normalizer", "NormalizationStats", "ENGINES", "unobservable_stores"]
