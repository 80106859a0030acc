"""Graph build stays linear on chained diamonds (per-build gate memos)."""

import collections

import pytest

from repro.analysis import AnalysisManager
from repro.bench import BENCHMARKS_BY_NAME, build_corpus, small_test_corpus
from repro.gated import GateAnalysis, PathConditionMemo
from repro.ir import clone_function, parse_function
from repro.transforms import PassManager, checkpoint_chain
from repro.validator import validate, validate_module_batch
from repro.vgraph import ValueGraph, build_shared_graph
from repro.vgraph.builder import GraphBuilder, build_chain_graph, build_function_graph


def diamond_chain(diamonds: int) -> str:
    """``diamonds`` if/else diamonds in a row, each joining in a φ.

    The join of one diamond branches into the next, so the path condition
    of the return block from the entry is a DAG whose tree unfolding has
    ``2 ** diamonds`` leaves.
    """
    lines = ["define i32 @chain(i32 %a, i32 %b) {", "entry:"]
    previous = "%a"
    for k in range(diamonds):
        lines += [
            f"  %c{k} = icmp slt i32 {previous}, %b",
            f"  br i1 %c{k}, label %then{k}, label %else{k}",
            f"then{k}:",
            f"  %t{k} = add i32 {previous}, {k + 1}",
            f"  br label %join{k}",
            f"else{k}:",
            f"  %e{k} = mul i32 {previous}, 2",
            f"  br label %join{k}",
            f"join{k}:",
            f"  %x{k} = phi i32 [ %t{k}, %then{k} ], [ %e{k}, %else{k} ]",
        ]
        previous = f"%x{k}"
    lines += [f"  ret i32 {previous}", "}"]
    return "\n".join(lines)


class _CallBudgetExceeded(Exception):
    pass


class TreeWalk(GraphBuilder):
    """The reference translation: every gate formula walked as a tree."""

    def _gate_to_node(self, gate, context):
        return self._translate_gate(gate, context)


_gate_to_node = GraphBuilder._gate_to_node


def _graph_nodes(graph):
    return [(node.id, node.kind, node.data, list(node.args))
            for node in sorted(graph.live_nodes(), key=lambda node: node.id)]


class TestDiamondChain:
    SIZES = (10, 20, 40)

    def _build(self, diamonds, monkeypatch):
        """Build one chain; fail fast once translation calls stop being linear."""
        function = parse_function(diamond_chain(diamonds))
        blocks = len(function.blocks)
        calls = collections.Counter()

        def counted(builder, gate, context):
            calls["gate_to_node"] += 1
            if calls["gate_to_node"] > 20 * blocks:
                raise _CallBudgetExceeded(f"{calls['gate_to_node']} gate translation "
                                          f"calls for {blocks} blocks")
            return _gate_to_node(builder, gate, context)

        monkeypatch.setattr(GraphBuilder, "_gate_to_node", counted)
        graph = ValueGraph()
        builder = GraphBuilder(graph, function)
        state_before = dict(vars(builder.gates))
        summary = builder.build()
        assert summary.result is not None
        # The translation memo belongs to the builder and the path
        # conditions to the shape's facts: the gate analysis view itself
        # is left exactly as it was.
        assert vars(builder.gates) == state_before
        return blocks, {
            "calls": calls["gate_to_node"],
            "gate_translations": graph.gate_translations,
            "path_conditions": builder.path_conditions.computed,
        }

    def test_work_grows_linearly_in_blocks(self, monkeypatch):
        counts = {}
        for diamonds in self.SIZES:
            blocks, work = self._build(diamonds, monkeypatch)
            for name, value in work.items():
                assert 0 < value <= 12 * blocks, (diamonds, name, value)
            counts[diamonds] = work
        for name in ("calls", "gate_translations", "path_conditions"):
            small, large = counts[self.SIZES[0]][name], counts[self.SIZES[-1]][name]
            # 4x the diamonds: linear work grows ~4x, exponential 2**30x.
            assert large <= 5 * small, (name, small, large)

    def test_memo_builds_the_tree_walk_graph(self):
        """A memo hit returns exactly the node a tree walk would rebuild."""
        function = parse_function(diamond_chain(8))
        memo_graph, tree_graph = ValueGraph(), ValueGraph()
        memo = GraphBuilder(memo_graph, function).build()
        tree = TreeWalk(tree_graph, function).build()
        assert (memo.result, memo.memory) == (tree.result, tree.memory)
        assert _graph_nodes(memo_graph) == _graph_nodes(tree_graph)
        assert memo_graph.make_calls < tree_graph.make_calls

    def test_provisional_nodes_do_not_outlive_their_epoch(self):
        """Re-entrant construction must not leak provisional nodes via the memo.

        In gcc's fn0002 a loop-exit gate is translated while a memory
        state it reads is still being built, so it first sees a
        provisional node the outer request later replaces.  A tree walk
        translates the gate again afterwards; the memo must do the same.
        """
        module = build_corpus(BENCHMARKS_BY_NAME["gcc"], 0.1)
        function = next(f for f in module.defined_functions() if f.name == "fn0002")
        _, versions = checkpoint_chain(function,
                                       PassManager().run_with_snapshots(function))
        epochs = 0
        # The larger versions take seconds to walk as trees.
        for version in [v for v in versions if len(v.blocks) < 100]:
            memo_graph, tree_graph = ValueGraph(), ValueGraph()
            builder = GraphBuilder(memo_graph, version)
            memo = builder.build()
            tree = TreeWalk(tree_graph, version).build()
            epochs += builder._epoch
            assert (memo.result, memo.memory) == (tree.result, tree.memory)
            assert _graph_nodes(memo_graph) == _graph_nodes(tree_graph)
        assert epochs > 0


IRREDUCIBLE = """
define i32 @irr(i1 %c, i1 %d) {
entry:
  br i1 %c, label %a, label %b
a:
  br i1 %d, label %b, label %exit
b:
  br i1 %c, label %a, label %exit
exit:
  ret i32 0
}
"""


class TestPathConditionMemo:
    def test_shared_memo_matches_fresh_queries(self):
        function = parse_function(IRREDUCIBLE)
        gates = GateAnalysis(function)
        entry = function.entry
        fresh = {block.name: repr(gates.path_condition(entry, block))
                 for block in function.blocks}
        for order in (function.blocks, list(reversed(function.blocks))):
            memo = PathConditionMemo()
            shared = {block.name: repr(gates.path_condition(entry, block, memo))
                      for block in order}
            assert shared == fresh

    def test_cycle_fallbacks_stay_out_of_the_shared_memo(self):
        function = parse_function(IRREDUCIBLE)
        gates = GateAnalysis(function)
        memo = PathConditionMemo()
        gates.path_condition(function.entry, function.block("exit"), memo)
        position = {block.name: index for index, block in enumerate(function.blocks)}
        table = memo.table(position["entry"])
        assert position["entry"] in table
        # a and b sit on a forward-edge cycle: their conditions depend on
        # which of them the query reached first.
        assert position["a"] not in table
        assert position["b"] not in table
        assert "reached" in repr(gates.path_condition(function.entry, function.block("a"), memo))

    def test_shared_memo_reuses_conditions(self):
        function = parse_function(diamond_chain(5))
        gates = GateAnalysis(function)
        memo = PathConditionMemo()
        first = gates.path_condition(function.entry, function.block("join4"), memo)
        computed = memo.computed
        again = gates.path_condition(function.entry, function.block("join4"), memo)
        assert again is first and memo.computed == computed
        inner = gates.path_condition(function.entry, function.block("join3"), memo)
        assert memo.computed == computed
        assert any(operand is inner for operand in first.operands[0].operands)


class TestWorkCounters:
    def test_validate_reports_construction_counters(self):
        before = parse_function(diamond_chain(6))
        after = clone_function(before)
        result = validate(before, after)
        graph, _, _ = build_shared_graph(before, after)
        assert result.stats["gate_translations"] == graph.gate_translations > 0
        assert result.stats["make_calls"] == graph.make_calls > 0

    def test_chain_stats_reach_engine_totals(self):
        module = small_test_corpus(functions=6, seed=11)
        [(_, report)] = validate_module_batch([module], strategy="stepwise")
        chain = report.chain_totals()
        totals = report.engine_totals()
        assert chain["chains"] > 0
        assert chain["chain_gate_translations"] > 0
        assert chain["chain_make_calls"] > chain["chain_gate_translations"]
        assert totals["gate_translations"] >= chain["chain_gate_translations"]
        assert totals["make_calls"] >= chain["chain_make_calls"]


class TestShapeSharing:
    """Checkpoints with one CFG shape share its analyses and path conditions."""

    def test_versions_of_one_shape_compute_conditions_once(self):
        function = parse_function(diamond_chain(6))
        alone = ValueGraph()
        build_function_graph(alone, function)
        manager = AnalysisManager()
        graph, _ = build_chain_graph([function, clone_function(function),
                                      clone_function(function)], manager)
        assert graph.cfg_shapes_computed == manager.shapes_computed == 1
        assert graph.path_conditions_computed == alone.path_conditions_computed > 0
        # The shared formulas still translate to the cold build's nodes.
        assert graph.make_calls == 3 * alone.make_calls
        assert graph.gate_translations == 3 * alone.gate_translations

    def test_cfg_preserving_chain_reports_fewer_shapes_than_versions(self):
        module = small_test_corpus(functions=6, seed=11)
        [(_, report)] = validate_module_batch(
            [module], ("adce", "gvn", "licm"), strategy="stepwise")
        chain = report.chain_totals()
        totals = report.engine_totals()
        assert chain["chains"] > 0
        assert 0 < chain["chain_cfg_shapes_computed"] < chain["chain_versions"]
        assert chain["chain_path_conditions_computed"] > 0
        for name in ("cfg_shapes_computed", "path_conditions_computed"):
            assert totals[name] >= chain[f"chain_{name}"]

    def test_shape_table_is_bounded_by_the_lru(self):
        manager = AnalysisManager(max_entries=1)
        first = parse_function(diamond_chain(2))
        second = parse_function(diamond_chain(3))
        for function in (first, second, first):
            manager.analyses_for(function)
        assert manager.shapes_computed == 3
        assert len(manager._shapes) == 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
