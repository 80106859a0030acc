"""Tests for the value graph: hash-consing, rules, sharing, partitioning, gates."""

import sys

import pytest

from repro.gated import GateAnalysis, MemoryEffects, TRUE, make_and, make_or
from repro.gated.gates import CondGate, FalseGate, TrueGate
from repro.ir import parse_function
from repro.vgraph import (
    ValueGraph,
    build_shared_graph,
    merge_by_partition,
    merge_cycles,
    refine_partition,
    unify,
)
from repro.vgraph.galias import GraphAliasResult, graph_alias
from repro.vgraph.normalize import Normalizer
from repro.vgraph.rules import RULE_GROUPS, rules_for


class TestValueGraphBasics:
    def test_hash_consing(self):
        graph = ValueGraph()
        a = graph.const(5)
        b = graph.const(5)
        c = graph.const(6)
        assert a == b
        assert a != c
        x = graph.make("binop", "add", [a, c])
        y = graph.make("binop", "add", [b, c])
        assert x == y

    def test_redirect_and_resolve(self):
        graph = ValueGraph()
        a, b = graph.const(1), graph.const(2)
        node = graph.make("binop", "add", [a, b])
        replacement = graph.const(3)
        assert graph.redirect(node, replacement)
        assert graph.same(node, replacement)
        assert not graph.redirect(node, replacement)  # already merged

    def test_make_after_redirect_reuses_canonical(self):
        graph = ValueGraph()
        a, b = graph.const(1), graph.const(2)
        node = graph.make("binop", "add", [a, b])
        graph.redirect(node, graph.const(3))
        again = graph.make("binop", "mul", [node, a])
        resolved_args = graph.resolve_args(graph.node(again))
        assert resolved_args[0] == graph.resolve(graph.const(3))

    def test_boolean_constructors_simplify(self):
        graph = ValueGraph()
        cond = graph.make("icmp", "slt", [graph.const(1), graph.const(2)])
        assert graph.and_(graph.true(), cond) == graph.resolve(cond)
        assert graph.or_(graph.false(), cond) == graph.resolve(cond)
        assert graph.and_(graph.false(), cond) == graph.false()
        assert graph.not_(graph.not_(cond)) == graph.resolve(cond)
        assert graph.not_(graph.true()) == graph.false()

    def test_maximize_sharing_merges_duplicates(self):
        graph = ValueGraph()
        a = graph.const(1)
        # Two structurally equal μ-free chains created independently.
        x = graph.make("binop", "add", [a, graph.const(2)])
        y = graph.make("binop", "mul", [x, x])
        # Simulate a rewrite creating an identical copy under different ids.
        x2 = graph.make("binop", "add", [graph.const(2), a])  # different order => different node
        assert x != x2
        graph.maximize_sharing()
        assert graph.live_node_count() >= 3

    def test_depends_on_mu(self):
        graph = ValueGraph()
        mu = graph.make_mu()
        graph.set_args(mu, [graph.const(0), graph.const(1)])
        wrapped = graph.make("binop", "add", [mu, graph.const(5)])
        plain = graph.make("binop", "add", [graph.const(1), graph.const(5)])
        assert graph.depends_on_mu(wrapped)
        assert not graph.depends_on_mu(plain)

    def test_signatures_stable_under_structure(self):
        graph = ValueGraph()
        a = graph.make("param", 0)
        x = graph.make("binop", "add", [a, graph.const(1)])
        y = graph.make("binop", "add", [a, graph.const(1)])
        signatures = graph.signatures()
        assert signatures[graph.resolve(x)] == signatures[graph.resolve(y)]

    def test_format_node_bounded(self):
        graph = ValueGraph()
        mu = graph.make_mu()
        inc = graph.make("binop", "add", [mu, graph.const(1)])
        graph.set_args(mu, [graph.const(0), inc])
        text = graph.format_node(mu)
        assert "mu" in text and "add" in text


class TestGraphAlias:
    def test_allocas_and_globals(self):
        graph = ValueGraph()
        a = graph.make("alloca", "p")
        b = graph.make("alloca", "q")
        g = graph.make("global", "g0")
        param = graph.make("param", 0)
        assert graph_alias(graph, a, b) is GraphAliasResult.NO_ALIAS
        assert graph_alias(graph, a, a) is GraphAliasResult.MUST_ALIAS
        assert graph_alias(graph, a, g) is GraphAliasResult.NO_ALIAS
        assert graph_alias(graph, a, param) is GraphAliasResult.NO_ALIAS
        assert graph_alias(graph, g, param) is GraphAliasResult.MAY_ALIAS

    def test_gep_offsets(self):
        graph = ValueGraph()
        base = graph.make("alloca", "arr")
        g1 = graph.make("gep", None, [base, graph.const(1)])
        g2 = graph.make("gep", None, [base, graph.const(2)])
        g1b = graph.make("gep", None, [base, graph.const(1)])
        unknown = graph.make("gep", None, [base, graph.make("param", 0)])
        assert graph_alias(graph, g1, g2) is GraphAliasResult.NO_ALIAS
        assert graph_alias(graph, g1, g1b) is GraphAliasResult.MUST_ALIAS
        assert graph_alias(graph, g1, unknown) is GraphAliasResult.MAY_ALIAS


class TestRules:
    def _normalize(self, graph, roots, groups=None):
        normalizer = Normalizer(graph, rule_groups=groups or tuple(RULE_GROUPS))
        normalizer.normalize(roots)

    def test_boolean_classification_survives_deep_chains(self):
        # Boolean classification runs during *normalization*, which gets
        # no recursion-limit headroom (only graph construction does): a
        # gate formula deeper than the interpreter's default limit must
        # classify — and normalize — without a RecursionError.
        from repro.vgraph.rules import _is_boolean_node

        graph = ValueGraph()
        node = graph.make("icmp", "eq", [graph.make("param", 0), graph.const(0)])
        for index in range(sys.getrecursionlimit()):
            leaf = graph.make("icmp", "slt",
                              [graph.make("param", 0), graph.const(index)])
            node = graph.make("binop", "and", [node, leaf])
        assert _is_boolean_node(graph, node)
        compared = graph.make("icmp", "ne", [node, graph.false()])
        self._normalize(graph, [compared], ("boolean",))
        assert graph.same(compared, node)

    def test_constant_folding_rule(self):
        graph = ValueGraph()
        node = graph.make("binop", "add", [graph.const(3), graph.const(3)])
        self._normalize(graph, [node], ("constfold",))
        assert graph.same(node, graph.const(6))

    def test_shift_canonicalization(self):
        graph = ValueGraph()
        a = graph.make("param", 0)
        doubled = graph.make("binop", "add", [a, a])
        shifted = graph.make("binop", "shl", [a, graph.const(1)])
        self._normalize(graph, [doubled, shifted], ("constfold",))
        assert graph.same(doubled, shifted)

    def test_cmp_identical_rule(self):
        graph = ValueGraph()
        a = graph.make("param", 0)
        eq = graph.make("icmp", "eq", [a, a])
        ne = graph.make("icmp", "ne", [a, a])
        self._normalize(graph, [eq, ne], ("boolean",))
        assert graph.same(eq, graph.true())
        assert graph.same(ne, graph.false())

    def test_phi_rules(self):
        graph = ValueGraph()
        a, b = graph.make("param", 0), graph.make("param", 1)
        cond = graph.make("icmp", "slt", [a, b])
        # φ with a true branch collapses to it.
        phi_true = graph.phi([(graph.true(), a), (graph.false(), b)])
        # φ whose branches agree collapses.
        phi_same = graph.phi([(cond, a), (graph.not_(cond), a)])
        self._normalize(graph, [phi_true, phi_same], ("phi",))
        assert graph.same(phi_true, a)
        assert graph.same(phi_same, a)

    def test_load_over_store_rules(self):
        graph = ValueGraph()
        p, q = graph.make("alloca", "p"), graph.make("alloca", "q")
        value = graph.make("param", 0)
        mem0 = graph.make("mem0")
        store_p = graph.make("store", None, [value, p, mem0])
        store_q = graph.make("store", None, [graph.const(9), q, store_p])
        load_p = graph.make("load", None, [p, store_q])
        self._normalize(graph, [load_p], ("loadstore",))
        assert graph.same(load_p, value)

    def test_store_overwrite_rule(self):
        graph = ValueGraph()
        p = graph.make("alloca", "p")
        mem0 = graph.make("mem0")
        first = graph.make("store", None, [graph.const(1), p, mem0])
        second = graph.make("store", None, [graph.const(2), p, first])
        direct = graph.make("store", None, [graph.const(2), p, mem0])
        self._normalize(graph, [second, direct], ("loadstore",))
        assert graph.same(second, direct)

    def test_eta_mu_rules(self):
        graph = ValueGraph()
        x = graph.make("param", 0)
        cond = graph.make("icmp", "slt", [x, graph.const(10)])
        invariant_mu = graph.make("mu", None, [x, x])
        eta = graph.make("eta", None, [cond, invariant_mu])
        never = graph.make("eta", None, [graph.false(), graph.make("mu", None, [x, graph.const(1)])])
        self._normalize(graph, [eta, never], ("eta",))
        assert graph.same(eta, x)
        assert graph.same(never, x)

    def test_eta_of_invariant_value(self):
        graph = ValueGraph()
        x = graph.make("param", 0)
        cond = graph.make("icmp", "slt", [x, graph.const(10)])
        eta = graph.make("eta", None, [cond, graph.make("binop", "add", [x, graph.const(1)])])
        self._normalize(graph, [eta], ("eta",))
        assert graph.same(eta, graph.make("binop", "add", [x, graph.const(1)]))

    def test_load_over_mu_rule(self):
        graph = ValueGraph()
        p, q = graph.make("alloca", "p"), graph.make("alloca", "q")
        mem0 = graph.make("mem0")
        mu = graph.make_mu()
        body_store = graph.make("store", None, [graph.const(1), q, mu])
        graph.set_args(mu, [mem0, body_store])
        load = graph.make("load", None, [p, mu])
        hoisted = graph.make("load", None, [p, mem0])
        self._normalize(graph, [load, hoisted], ("loadstore",))
        assert graph.same(load, hoisted)

    def test_load_over_mu_blocked_by_aliasing_store(self):
        graph = ValueGraph()
        p = graph.make("alloca", "p")
        mem0 = graph.make("mem0")
        mu = graph.make_mu()
        body_store = graph.make("store", None, [graph.const(1), p, mu])
        graph.set_args(mu, [mem0, body_store])
        load = graph.make("load", None, [p, mu])
        hoisted = graph.make("load", None, [p, mem0])
        self._normalize(graph, [load, hoisted], ("loadstore",))
        assert not graph.same(load, hoisted)

    def test_rules_for_unknown_group(self):
        with pytest.raises(KeyError):
            rules_for(["nonsense"])


class TestCycleMatching:
    def _two_equal_cycles(self):
        graph = ValueGraph()
        zero, one = graph.const(0), graph.const(1)
        mu1 = graph.make_mu()
        graph.set_args(mu1, [zero, graph.make("binop", "add", [mu1, one])])
        mu2 = graph.make_mu()
        graph.set_args(mu2, [zero, graph.make("binop", "add", [mu2, one])])
        return graph, mu1, mu2

    def test_unify_equal_cycles(self):
        graph, mu1, mu2 = self._two_equal_cycles()
        assert unify(graph, mu1, mu2) is not None

    def test_unify_rejects_different_cycles(self):
        graph = ValueGraph()
        zero, one, two = graph.const(0), graph.const(1), graph.const(2)
        mu1 = graph.make_mu()
        graph.set_args(mu1, [zero, graph.make("binop", "add", [mu1, one])])
        mu2 = graph.make_mu()
        graph.set_args(mu2, [zero, graph.make("binop", "add", [mu2, two])])
        assert unify(graph, mu1, mu2) is None

    def test_merge_cycles(self):
        graph, mu1, mu2 = self._two_equal_cycles()
        merged = merge_cycles(graph, [mu1, mu2])
        assert merged > 0
        assert graph.same(mu1, mu2)

    def test_partition_refinement_merges_cycles(self):
        graph, mu1, mu2 = self._two_equal_cycles()
        merge_by_partition(graph, [mu1, mu2])
        assert graph.same(mu1, mu2)

    def test_partition_keeps_distinct_nodes_apart(self):
        graph = ValueGraph()
        a = graph.make("binop", "add", [graph.const(1), graph.const(2)])
        b = graph.make("binop", "add", [graph.const(1), graph.const(3)])
        mapping = refine_partition(graph)
        assert mapping[graph.resolve(a)] != mapping[graph.resolve(b)]


class TestGates:
    def test_edge_conditions(self, diamond_source):
        fn = parse_function(diamond_source)
        gates = GateAnalysis(fn)
        entry, then, else_ = fn.block("entry"), fn.block("then"), fn.block("else")
        cond_then = gates.edge_condition(entry, then)
        cond_else = gates.edge_condition(entry, else_)
        assert isinstance(cond_then, CondGate) and not cond_then.negated
        assert isinstance(cond_else, CondGate) and cond_else.negated

    def test_phi_gates_are_relative_to_idom(self, diamond_source):
        fn = parse_function(diamond_source)
        gates = GateAnalysis(fn)
        join_gates = dict((pred.name, gate) for pred, gate in gates.phi_gates(fn.block("join")))
        assert isinstance(join_gates["then"], CondGate)
        assert isinstance(join_gates["else"], CondGate)

    def test_loop_exit_condition(self, loop_source):
        from repro.analysis import LoopInfo

        fn = parse_function(loop_source)
        gates = GateAnalysis(fn)
        loop = LoopInfo.compute(fn).loops[0]
        exit_condition = gates.loop_exit_condition(loop)
        assert isinstance(exit_condition, CondGate) and exit_condition.negated

    def test_make_and_or_simplify(self):
        cond = CondGate(0, False)
        assert make_and([TRUE, cond]) is cond
        assert isinstance(make_and([FalseGate(), cond]), FalseGate)
        assert make_or([FalseGate(), cond]) is cond
        assert isinstance(make_or([TrueGate(), cond]), TrueGate)

    def test_memory_effects(self, memory_source, loop_source):
        memory_fn = parse_function(memory_source)
        loop_fn = parse_function(loop_source)
        assert MemoryEffects(memory_fn).any_writes()
        assert not MemoryEffects(loop_fn).any_writes()


class TestSharedGraphConstruction:
    def test_identical_straightline_functions_share_roots(self, diamond_source):
        fn = parse_function(diamond_source)
        clone = fn.clone()
        graph, s1, s2 = build_shared_graph(fn, clone)
        assert graph.same(s1.memory, s2.memory)
        assert s1.result is not None and graph.same(s1.result, s2.result)

    def test_identical_loop_functions_unify_after_cycle_merge(self, loop_source):
        fn = parse_function(loop_source)
        clone = fn.clone()
        graph, s1, s2 = build_shared_graph(fn, clone)
        # The two loops are separate μ-cycles until cycle matching runs.
        merge_cycles(graph, s1.roots() + s2.roots())
        graph.maximize_sharing()
        assert graph.same(s1.result, s2.result)
        assert graph.same(s1.memory, s2.memory)

    def test_loop_function_builds_mu_and_eta(self, loop_source):
        fn = parse_function(loop_source)
        graph, summary, _ = build_shared_graph(fn, fn.clone())
        kinds = {graph.node(n).kind for n in graph.reachable(summary.roots())}
        assert "mu" in kinds and "eta" in kinds

    def test_memory_function_builds_store_chain(self, memory_source):
        fn = parse_function(memory_source)
        graph, summary, _ = build_shared_graph(fn, fn.clone())
        memory_node = graph.node(summary.memory)
        assert memory_node.kind == "store"

    def test_irreducible_cfg_rejected(self):
        from repro.errors import IrreducibleCFGError
        from repro.vgraph import GraphBuilder, ValueGraph

        fn = parse_function(
            """
            define i32 @irr(i1 %c) {
            entry:
              br i1 %c, label %a, label %b
            a:
              br label %b
            b:
              br i1 %c, label %a, label %exit
            exit:
              ret i32 0
            }
            """
        )
        with pytest.raises(IrreducibleCFGError):
            GraphBuilder(ValueGraph(), fn)
