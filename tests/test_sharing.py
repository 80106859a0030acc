"""Targeted coverage for μ-cycle unification and its driver, merge_cycles.

Pins the behaviors the incremental normalization engine depends on: the
``max_pairs`` attempt budget really truncates, the candidate-set
restriction is lifted as soon as a round merges (merges reshape the graph
around every μ), structural signatures are invariant under node-id
renumbering (they group candidate μ pairs, so id-dependence would make
matching non-deterministic), and the unification walk is iterative — it
must not depend on the Python recursion limit, because validation no
longer raises it for the normalization phase.
"""

import sys

from repro.vgraph.graph import ValueGraph
from repro.vgraph.sharing import merge_cycles, unify


def _counting_loop(graph: ValueGraph, start: int, stride: int) -> int:
    """μ for ``x = start; loop: x = x + stride`` — equal iff args equal."""
    mu = graph.make_mu()
    body = graph.make("binop", "add", [mu, graph.const(stride)])
    graph.set_args(mu, [graph.const(start), body])
    return mu


class TestMaxPairsBudget:
    def test_zero_budget_attempts_nothing(self):
        graph = ValueGraph()
        mu1 = _counting_loop(graph, 0, 1)
        mu2 = _counting_loop(graph, 0, 1)
        assert merge_cycles(graph, [mu1, mu2], max_pairs=0) == 0
        assert not graph.same(mu1, mu2)

    def test_budget_truncates_attempts(self):
        # Ten equivalent cycles need many pairwise attempts to merge into
        # one class; a budget of one attempt per round merges strictly
        # fewer of them than an unbounded run.
        def build():
            graph = ValueGraph()
            return graph, [_counting_loop(graph, 0, 1) for _ in range(10)]

        graph_bounded, mus_bounded = build()
        bounded = merge_cycles(graph_bounded, list(mus_bounded), max_pairs=1)
        graph_free, mus_free = build()
        unbounded = merge_cycles(graph_free, list(mus_free))
        assert unbounded > bounded
        canonical = {graph_free.resolve(mu) for mu in mus_free}
        assert len(canonical) == 1  # unbounded run merges all ten

    def test_bounded_run_still_makes_progress(self):
        graph = ValueGraph()
        mus = [_counting_loop(graph, 0, 1) for _ in range(4)]
        assert merge_cycles(graph, list(mus), max_pairs=1) > 0


class TestCandidateRestriction:
    def test_no_candidate_mu_is_a_cheap_no_op(self):
        graph = ValueGraph()
        mu1 = _counting_loop(graph, 0, 1)
        mu2 = _counting_loop(graph, 0, 1)
        plain = graph.const(99)
        assert merge_cycles(graph, [mu1, mu2], candidates={plain}) == 0
        assert not graph.same(mu1, mu2)

    def test_candidate_pairs_are_attempted(self):
        graph = ValueGraph()
        mu1 = _counting_loop(graph, 0, 1)
        mu2 = _counting_loop(graph, 0, 1)
        assert merge_cycles(graph, [mu1, mu2], candidates={mu1}) > 0
        assert graph.same(mu1, mu2)

    def test_restriction_lifted_after_a_merging_round(self):
        # Two unrelated equivalence classes: A (strides 1) and B
        # (strides 2).  Only an A-μ is a candidate, so round one can only
        # merge the A pair — but a merging round lifts the restriction,
        # and the B pair must merge in a later round of the same call.
        graph = ValueGraph()
        a1 = _counting_loop(graph, 0, 1)
        a2 = _counting_loop(graph, 0, 1)
        b1 = _counting_loop(graph, 5, 2)
        b2 = _counting_loop(graph, 5, 2)
        merged = merge_cycles(graph, [a1, a2, b1, b2], candidates={a1})
        assert merged > 0
        assert graph.same(a1, a2)
        assert graph.same(b1, b2), "candidate restriction must lift after a merge"
        assert not graph.same(a1, b1)


class TestSharingAfterCycleMerges:
    def test_parents_of_merged_cycles_are_hash_consed(self):
        # Terms over two equivalent loops become identical once the loops
        # merge; merge_cycles re-keys the stale parents of its own
        # redirects, so they merge too, without a full sharing scan.
        graph = ValueGraph()
        mu1 = _counting_loop(graph, 0, 1)
        mu2 = _counting_loop(graph, 0, 1)
        seven = graph.const(7)
        use1 = graph.make("binop", "mul", [mu1, seven])
        use2 = graph.make("binop", "mul", [mu2, seven])
        top1 = graph.make("eta", None, [graph.true(), use1])
        top2 = graph.make("eta", None, [graph.true(), use2])
        assert merge_cycles(graph, [top1, top2]) > 0
        assert graph.same(mu1, mu2)
        assert graph.same(use1, use2)
        assert graph.same(top1, top2)


class TestSignatureStability:
    def test_signatures_stable_across_node_id_renumbering(self):
        # The same structure built in two different orders gets different
        # node ids; the iterated structural hash must not see them.
        def build(reversed_order: bool) -> tuple:
            graph = ValueGraph()
            if reversed_order:
                # Burn some ids first so every node is renumbered.
                for i in range(7):
                    graph.const(100 + i)
            mu = _counting_loop(graph, 0, 1)
            term = graph.make("binop", "mul", [mu, graph.const(3)])
            return graph, mu, term

        graph_a, mu_a, term_a = build(False)
        graph_b, mu_b, term_b = build(True)
        assert mu_a != mu_b or term_a != term_b  # ids actually differ
        signatures_a = graph_a.signatures(rounds=4, roots=[term_a])
        signatures_b = graph_b.signatures(rounds=4, roots=[term_b])
        assert signatures_a[graph_a.resolve(term_a)] == \
               signatures_b[graph_b.resolve(term_b)]
        assert signatures_a[graph_a.resolve(mu_a)] == \
               signatures_b[graph_b.resolve(mu_b)]

    def test_mu_scoped_signatures_match_root_scoped(self):
        # merge_cycles seeds signatures from the μ population; a node's
        # signature depends only on its descendants, so the values must
        # agree with a computation seeded from the enclosing roots.
        graph = ValueGraph()
        mu = _counting_loop(graph, 0, 1)
        root = graph.make("binop", "mul", [mu, graph.const(3)])
        from_root = graph.signatures(rounds=3, roots=[root])
        from_mu = graph.signatures(rounds=3, roots=[mu])
        assert from_mu[graph.resolve(mu)] == from_root[graph.resolve(mu)]


class TestIterativeUnify:
    def _deep_pair(self, depth: int):
        graph = ValueGraph()

        def chain() -> int:
            # Rooting each chain in its own (non-hash-consed) μ keeps the
            # two structures distinct — plain acyclic chains would be
            # collapsed into one node by construction-time hash-consing.
            mu = graph.make_mu()
            node = mu
            for _ in range(depth):
                node = graph.make("binop", "add", [node, graph.const(1)])
            graph.set_args(mu, [graph.const(0), node])
            return mu

        return graph, chain(), chain()

    def test_deep_unify_under_tiny_recursion_limit(self):
        graph, left, right = self._deep_pair(depth=4000)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            mapping = unify(graph, left, right)
        finally:
            sys.setrecursionlimit(old_limit)
        assert mapping is not None

    def test_deep_mismatch_under_tiny_recursion_limit(self):
        graph, left, _ = self._deep_pair(depth=4000)
        other = graph.make_mu()
        node = other
        for index in range(4000):
            opcode = "add" if index != 1234 else "sub"
            node = graph.make("binop", opcode, [node, graph.const(1)])
        graph.set_args(other, [graph.const(0), node])
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            assert unify(graph, left, other) is None
        finally:
            sys.setrecursionlimit(old_limit)

    def test_mapping_matches_recursive_postorder(self):
        # The explicit-stack walk must record child pairs before their
        # parents (the order redirects are applied in merge_cycles).
        graph = ValueGraph()
        mu1 = _counting_loop(graph, 0, 1)
        mu2 = _counting_loop(graph, 0, 1)
        mapping = unify(graph, mu1, mu2)
        assert mapping is not None
        order = list(mapping)
        assert order[-1] == graph.resolve(mu2), "μ pair must be recorded last"
