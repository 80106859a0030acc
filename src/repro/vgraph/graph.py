"""The shared, hash-consed value graph.

One :class:`ValueGraph` holds the nodes of *both* functions being
compared, so that identical sub-terms (arguments, constants, common
sub-expressions) are literally the same node — the paper's key trick for
making the equality check O(1) in the best case.

The graph supports:

* **hash-consing** — :meth:`make` returns an existing node when an
  identical one (same kind, data and resolved arguments) already exists;
* **redirection** — normalization rules replace a node by another via
  :meth:`redirect`.  The forwarding table maps every merged-away id
  *straight* to its canonical id, so :meth:`resolve` is one dictionary
  lookup that never mutates.  A merge keeps that invariant by re-pointing
  the ids already forwarded to the old root (``_members`` lists them per
  root); on the paper corpora that is about one re-point per three
  merges;
* **cycle support** — μ-nodes are created as placeholders with
  :meth:`make_mu` and patched with :meth:`set_args` once the loop body has
  been translated;
* **structural signatures** — an iterated (Weisfeiler–Lehman style) hash
  that is stable across graphs and tolerant of cycles, used to order φ
  branches canonically and to seed cycle matching;
* **sharing maximization** — re-hash-consing to a fixpoint after rewrites,
  over the whole graph (:meth:`maximize_sharing`) or over the stale
  parents of recent merges (:meth:`maximize_sharing_incremental`), used
  together with the μ-cycle unification in :mod:`repro.vgraph.sharing`;
* **reverse use-edges** — every node knows which nodes use it as an
  argument (:meth:`parents`), so a redirect can enumerate exactly the
  nodes whose hash-consing keys became stale;
* **change notification** — listeners registered with
  :meth:`add_listener` observe every merge as ``(old, new, stale_parents)``,
  which is what feeds the worklist of the incremental normalization
  engine (:class:`repro.vgraph.normalize.Normalizer`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .nodes import CYCLIC_KINDS, VNode

#: Signature of a merge listener: ``(old_root, new_root, stale_parents)``.
#: ``stale_parents`` are the (registration-time canonical) ids of nodes
#: that used ``old_root`` as an argument — exactly the nodes whose
#: hash-consing keys were invalidated by the merge.
MergeListener = Callable[[int, int, Set[int]], None]


class ValueGraph:
    """A mutable, hash-consed term graph (possibly cyclic)."""

    def __init__(self) -> None:
        self._nodes: Dict[int, VNode] = {}
        #: Merged-away id -> its canonical id (always one hop, never a chain).
        self._forward: Dict[int, int] = {}
        #: Canonical id -> the ids forwarded to it (re-pointed on a merge).
        self._members: Dict[int, List[int]] = {}
        self._table: Dict[Tuple, int] = {}
        self._next_id = 0
        self._parents: Dict[int, Set[int]] = {}
        self._listeners: List[MergeListener] = []
        #: Work counters: every :meth:`make` call, hash-cons hits included,
        #: and every gate formula the builder translated (memo hits
        #: excluded).  Unlike ``next_id`` they see work that creates no node.
        self.make_calls = 0
        self.gate_translations = 0
        #: Path conditions the builds computed (shape-memo hits excluded)
        #: and CFG shapes whose analyses they had to compute.
        self.path_conditions_computed = 0
        self.cfg_shapes_computed = 0
        #: Canonical id -> "is this an i1-valued term?" for the boolean
        #: rules.  Exact between merges (no canonical id, kind or argument
        #: changes and :meth:`make` only adds nodes), so :meth:`_merge`
        #: drops it and every other mutation leaves it valid.
        self.boolean_memo: Dict[int, bool] = {}

    # -- identity --------------------------------------------------------
    def resolve(self, node_id: int) -> int:
        """The canonical id of ``node_id`` (one lookup; see ``_forward``)."""
        return self._forward.get(node_id, node_id)

    def node(self, node_id: int) -> VNode:
        """The canonical :class:`VNode` for ``node_id``."""
        return self._nodes[self._forward.get(node_id, node_id)]

    def same(self, a: int, b: int) -> bool:
        """Do two ids denote the same canonical node?"""
        return self.resolve(a) == self.resolve(b)

    def __len__(self) -> int:
        return len(self._nodes)

    def live_node_count(self) -> int:
        """Number of canonical (non-redirected) nodes."""
        return sum(1 for node_id in self._nodes if node_id not in self._forward)

    @property
    def next_id(self) -> int:
        """The id the next created node will receive (a creation watermark).

        The incremental engine snapshots this before applying a rule and
        afterwards knows exactly which nodes the rule manufactured.
        """
        return self._next_id

    # -- reverse use-edges and change notification ------------------------
    def parents(self, node_id: int) -> Set[int]:
        """Canonical ids of the nodes that use ``node_id`` as an argument.

        The result may include nodes that are no longer reachable from any
        root (parent sets are never pruned); consumers treat it as an
        over-approximation.
        """
        registered = self._parents.get(self.resolve(node_id))
        if not registered:
            return set()
        return {self.resolve(parent) for parent in registered}

    def add_listener(self, listener: MergeListener) -> None:
        """Register a callback observing every merge (redirect or sharing)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: MergeListener) -> None:
        """Unregister a callback added with :meth:`add_listener`."""
        self._listeners.remove(listener)

    def _register_args(self, node_id: int, args: Iterable[int]) -> None:
        for arg in args:
            self._parents.setdefault(arg, set()).add(node_id)

    def _merge(self, old_root: int, new_root: int) -> None:
        """Forward ``old_root`` to ``new_root``, migrating parent edges.

        Every merge in the graph funnels through here so listeners see a
        complete change feed: the stale parents handed to them are the
        nodes whose hash-consing keys the merge invalidated.
        """
        forward = self._forward
        forward[old_root] = new_root
        moved = self._members.pop(old_root, None)
        members = self._members.setdefault(new_root, [])
        if moved:
            for member in moved:
                forward[member] = new_root
            members.extend(moved)
        members.append(old_root)
        if self.boolean_memo:
            self.boolean_memo.clear()
        stale = self._parents.pop(old_root, None)
        if stale:
            self._parents.setdefault(new_root, set()).update(stale)
        if self._listeners:
            notified = set(stale) if stale else set()
            for listener in self._listeners:
                listener(old_root, new_root, notified)

    # -- construction ------------------------------------------------------
    def make(self, kind: str, data=None, args: Sequence[int] = ()) -> int:
        """Create (or reuse) a node.  Returns its id."""
        self.make_calls += 1
        find = self._forward.get
        resolved = tuple([find(a, a) for a in args])
        key = (kind, data, resolved)
        existing = self._table.get(key)
        if existing is not None:
            return find(existing, existing)
        node_id = self._next_id
        self._next_id += 1
        node = VNode(node_id, kind, data, list(resolved))
        self._nodes[node_id] = node
        self._table[key] = node_id
        self._register_args(node_id, resolved)
        return node_id

    def make_mu(self) -> int:
        """Create a fresh (non-hash-consed) μ placeholder node."""
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = VNode(node_id, "mu", None, [])
        return node_id

    def set_args(self, node_id: int, args: Sequence[int]) -> None:
        """Patch the arguments of a placeholder node (μ construction)."""
        canonical = self.resolve(node_id)
        node = self._nodes[canonical]
        if node.kind not in CYCLIC_KINDS:
            raise ValueError(f"set_args is only for cyclic nodes, not {node.kind!r}")
        node.args = [self.resolve(a) for a in args]
        self._register_args(canonical, node.args)

    # -- convenience constructors ----------------------------------------------
    def const(self, value: int, type_str: str = "i32") -> int:
        """An integer constant node."""
        return self.make("const", (value, type_str))

    def true(self) -> int:
        """The boolean constant ``true``."""
        return self.make("const", (1, "i1"))

    def false(self) -> int:
        """The boolean constant ``false``."""
        return self.make("const", (0, "i1"))

    def not_(self, condition: int) -> int:
        """Boolean negation with the obvious simplifications."""
        node = self.node(condition)
        if node.is_true():
            return self.false()
        if node.is_false():
            return self.true()
        if node.kind == "not":
            return self.resolve(node.args[0])
        return self.make("not", None, [condition])

    def and_(self, a: int, b: int) -> int:
        """Boolean conjunction with the obvious simplifications."""
        node_a, node_b = self.node(a), self.node(b)
        if node_a.is_true():
            return self.resolve(b)
        if node_b.is_true():
            return self.resolve(a)
        if node_a.is_false() or node_b.is_false():
            return self.false()
        if self.same(a, b):
            return self.resolve(a)
        return self.make("binop", "and", [a, b])

    def or_(self, a: int, b: int) -> int:
        """Boolean disjunction with the obvious simplifications."""
        node_a, node_b = self.node(a), self.node(b)
        if node_a.is_false():
            return self.resolve(b)
        if node_b.is_false():
            return self.resolve(a)
        if node_a.is_true() or node_b.is_true():
            return self.true()
        if self.same(a, b):
            return self.resolve(a)
        return self.make("binop", "or", [a, b])

    def phi(self, branches: Sequence[Tuple[int, int]]) -> int:
        """A gated φ-node from (condition, value) pairs."""
        args: List[int] = []
        for condition, value in branches:
            args.extend([condition, value])
        return self.make("phi", None, args)

    # -- rewriting ------------------------------------------------------------
    def redirect(self, old: int, new: int) -> bool:
        """Make every reference to ``old`` mean ``new``.  Returns ``True`` if effective."""
        old_root, new_root = self.resolve(old), self.resolve(new)
        if old_root == new_root:
            return False
        self._merge(old_root, new_root)
        return True

    def resolve_args(self, node: VNode) -> List[int]:
        """The node's arguments, each resolved to its canonical id."""
        return [self.resolve(a) for a in node.args]

    def canonicalize_args(self) -> None:
        """Rewrite every live node's argument list to canonical ids."""
        for node_id, node in self._nodes.items():
            if node_id in self._forward:
                continue
            node.args = [self.resolve(a) for a in node.args]

    def maximize_sharing(self, max_rounds: int = 50) -> int:
        """Merge structurally identical nodes until a fixpoint.

        Returns the number of merges performed.  Cyclic structures that
        are equivalent but not syntactically identical are *not* merged
        here; that is the job of :func:`repro.vgraph.sharing.merge_cycles`.

        This re-keys every live node each round, so it costs the whole
        graph.  It is the reference pass: the ``fullscan`` engine and
        :func:`repro.vgraph.partition.merge_by_partition` call it.  The
        worklist engine and :func:`~repro.vgraph.sharing.merge_cycles`
        use :meth:`maximize_sharing_incremental`, seeded by the stale
        parents of their own merges.
        """
        merges = 0
        for _ in range(max_rounds):
            self.canonicalize_args()
            table: Dict[Tuple, int] = {}
            changed = False
            for node_id in sorted(self._nodes):
                if node_id in self._forward:
                    continue
                node = self._nodes[node_id]
                if node.kind in CYCLIC_KINDS:
                    # μ-nodes may be self-referential; only merge when the
                    # key (with self-references normalized) matches.
                    key = self._mu_key(node)
                else:
                    key = node.key(tuple(node.args))
                other = table.get(key)
                if other is None:
                    table[key] = node_id
                elif other != node_id:
                    self._merge(node_id, other)
                    merges += 1
                    changed = True
            if not changed:
                break
        self._rebuild_table()
        return merges

    def maximize_sharing_incremental(self, seeds: Iterable[int]) -> int:
        """Congruence-closure sharing restricted to a dirty set.

        ``seeds`` are nodes whose hash-consing keys may have changed (the
        stale parents of recent merges).  Each is re-keyed against the
        persistent cons table; duplicates are merged and the merge's own
        stale parents are queued in turn, so the pass runs to the same
        fixpoint a full :meth:`maximize_sharing` scan would reach on the
        affected region — in time proportional to the change, not the
        graph.  μ-nodes are left to the cycle matchers, exactly as
        :meth:`_rebuild_table` excludes them from the cons table.

        The result is exact only if the cons table held every non-μ node
        once before the merges that produced ``seeds``.  A freshly built
        graph satisfies that (the builder hash-conses and never
        redirects), and it stays true as long as every merge's stale
        parents are handed to this method.
        """
        merges = 0
        queue = deque(seeds)
        find = self._forward.get
        while queue:
            node_id = queue.popleft()
            node_id = find(node_id, node_id)
            node = self._nodes[node_id]
            if node.kind in CYCLIC_KINDS:
                continue
            node.args = [find(a, a) for a in node.args]
            key = node.key(tuple(node.args))
            existing = self._table.get(key)
            if existing is None:
                self._table[key] = node_id
                continue
            existing = find(existing, existing)
            if existing == node_id:
                continue
            stale = self._parents.get(node_id)
            follow_up = list(stale) if stale else []
            self._merge(node_id, existing)
            merges += 1
            queue.extend(follow_up)
            queue.append(existing)
        return merges

    def _mu_key(self, node: VNode) -> Tuple:
        args = []
        for arg in node.args:
            resolved = self.resolve(arg)
            args.append("self" if resolved == node.id else resolved)
        return (node.kind, node.data, tuple(args))

    def _rebuild_table(self) -> None:
        self.canonicalize_args()
        self._table = {}
        for node_id, node in self._nodes.items():
            if node_id in self._forward:
                continue
            if node.kind in CYCLIC_KINDS:
                continue
            self._table.setdefault(node.key(tuple(node.args)), node_id)

    # -- copying ------------------------------------------------------------
    def clone(self, roots: Optional[Iterable[int]] = None) -> "ValueGraph":
        """An independent copy of this graph (optionally root-restricted).

        With ``roots`` the copy keeps only the nodes reachable from them
        — the incremental revalidator clones its *pristine* (constructed,
        never normalized) master chain graph down to the current
        checkpoint roots before normalizing, so retired versions' nodes
        neither appear in the work graph nor cost the normalization
        anything.
        Restriction therefore requires a merge-free graph: redirects
        forward arbitrary ids across subgraph boundaries, and slicing a
        forwarded graph could orphan forward targets.

        Node ids are preserved (``_next_id`` carries over, so watermark
        arithmetic against the source stays valid), the cons table keeps
        exactly the entries whose node survived, parent edges are rebuilt
        from the kept argument lists, and listeners are *not* copied —
        they observe the graph they were registered on.
        """
        copy = ValueGraph()
        if roots is None:
            kept = None
        else:
            if self._forward:
                raise ValueError(
                    "root-restricted clone requires a merge-free graph "
                    "(redirects may forward across the kept subgraph)")
            kept = self.reachable(roots)
        for node_id, node in self._nodes.items():
            if kept is not None and node_id not in kept:
                continue
            copy._nodes[node_id] = VNode(node.id, node.kind, node.data,
                                         list(node.args))
            # Parent edges live under canonical ids (merges migrate them),
            # so register resolved arguments, not the raw stored ids.
            copy._register_args(node_id, (self.resolve(a) for a in node.args))
        if kept is None:
            copy._forward = dict(self._forward)
            copy._members = {root: list(ids) for root, ids in self._members.items()}
            copy._table = dict(self._table)
        else:
            copy._table = {key: node_id for key, node_id in self._table.items()
                           if node_id in kept}
        copy._next_id = self._next_id
        return copy

    # -- queries ------------------------------------------------------------
    def reachable(self, roots: Iterable[int]) -> Set[int]:
        """Canonical ids reachable from the given roots."""
        seen: Set[int] = set()
        find = self._forward.get
        nodes = self._nodes
        stack = [find(r, r) for r in roots]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            for arg in nodes[node_id].args:
                resolved = find(arg, arg)
                if resolved not in seen:
                    stack.append(resolved)
        return seen

    def live_nodes(self) -> List[VNode]:
        """All canonical nodes."""
        return [node for node_id, node in self._nodes.items() if node_id not in self._forward]

    def depends_on_mu(self, node_id: int, _cache: Optional[Dict[int, bool]] = None) -> bool:
        """Does the sub-graph rooted at ``node_id`` contain a μ-node?

        μ-free sub-graphs denote loop-invariant values; the η rules use
        this to drop η wrappers around invariant values.
        """
        root = self.resolve(node_id)
        seen: Set[int] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            node = self._nodes[current]
            if node.kind == "mu":
                return True
            for arg in node.args:
                resolved = self.resolve(arg)
                if resolved not in seen:
                    stack.append(resolved)
        return False

    # -- structural signatures ---------------------------------------------------
    def signatures(self, rounds: int = 4, roots: Optional[Iterable[int]] = None) -> Dict[int, int]:
        """Iterated structural hashes, stable under node-id renaming.

        Every node starts with a hash of its ``(kind, data, arity)`` and is
        refined ``rounds`` times by hashing in its arguments' signatures.
        Cycles are handled naturally (the refinement just stops improving).
        The result is used to order φ branches canonically and to pick
        candidate pairs for μ-cycle unification.
        """
        if roots is None:
            node_ids = [n.id for n in self.live_nodes()]
        else:
            node_ids = list(self.reachable(roots))
        nodes = [self._nodes[node_id] for node_id in node_ids]
        find = self._forward.get
        resolved_args = [[find(a, a) for a in node.args] for node in nodes]
        signature: Dict[int, int] = {}
        for node_id, node in zip(node_ids, nodes):
            signature[node_id] = hash((node.kind, node.data, len(node.args)))
        for _ in range(rounds):
            updated: Dict[int, int] = {}
            for node_id, node, args in zip(node_ids, nodes, resolved_args):
                arg_signatures = tuple(signature.get(a, 0) for a in args)
                updated[node_id] = hash((node.kind, node.data, arg_signatures))
            signature = updated
        return signature

    # -- debugging -----------------------------------------------------------------
    def format_node(self, node_id: int, max_depth: int = 6) -> str:
        """A bounded-depth textual rendering of a sub-graph (for messages/tests)."""
        seen: Set[int] = set()

        def render(current: int, depth: int) -> str:
            current = self.resolve(current)
            node = self._nodes[current]
            if depth <= 0 or current in seen:
                return f"#{current}"
            seen.add(current)
            label = node.kind if node.data is None else f"{node.kind}[{node.data}]"
            if not node.args:
                return label
            rendered_args = ", ".join(render(a, depth - 1) for a in node.args)
            return f"{label}({rendered_args})"

        return render(node_id, max_depth)


__all__ = ["ValueGraph", "MergeListener"]
