"""Construction of the shared value graph from functions.

This is the "hash-consed symbolic analysis" box of the paper's Figure 1.
For each function we:

1. check the CFG is reducible (the front end rejects irreducible control
   flow, §5.1);
2. compute dominators, natural loops and gate (path-condition) formulas;
3. symbolically evaluate the function bottom-up into graph nodes:
   ordinary instructions become operator nodes over their operands'
   nodes, φ-nodes at join points become *gated* φ nodes, φ-nodes at loop
   headers become μ nodes, and uses of loop-defined values outside their
   loop are wrapped in η nodes;
4. thread an abstract memory state through loads, stores and calls (the
   monadic interpretation of §3.1), giving memory its own φ/μ/η structure;
5. return the function's observable roots: the (gated) return value and
   the final memory state.

Both functions of a validation query are built into the *same*
:class:`~repro.vgraph.graph.ValueGraph`, so equal sub-terms are shared and
the final equality check is a pointer comparison.

Gate formulas are DAGs, not trees: along a chain of diamonds the path
condition of each join is shared by both arms of the next one, so a
formula with linearly many distinct sub-formulas has exponentially many
paths.  Two memos keep that linear.  Path conditions are memoized per
region start on the CFG shape's facts (:mod:`repro.analysis.shape`):
formulas name branches by block position, so the checkpoints of a chain
that share a CFG compute each condition once between them, and a build
reads each :class:`~repro.gated.gates.CondGate`'s condition from its own
version's block.  The node each sub-formula translated to is memoized
per use block for the lifetime of one build.  Every sub-formula is
translated once per build; hash-consing makes a memo hit the node a tree
walk would have rebuilt.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.loops import Loop
from ..analysis.manager import (
    AnalysisManager,
    FunctionAnalyses,
    compute_function_analyses,
)
from ..errors import ValidationInternalError
from ..gated.gates import (
    AndGate,
    CondGate,
    FalseGate,
    GateExpr,
    OrGate,
    ReachedGate,
    TrueGate,
)
from ..gated.monadic import defines_memory
from ..ir.instructions import (
    Alloca,
    BinaryOperator,
    Call,
    Cast,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from .graph import ValueGraph


class FunctionSummary:
    """The observable roots of one function in the shared graph."""

    def __init__(self, function: Function, result: Optional[int], memory: int):
        self.function = function
        #: Node id of the (gated) return value, or ``None`` for void functions.
        self.result = result
        #: Node id of the final memory state.
        self.memory = memory

    def roots(self) -> List[int]:
        """The root node ids (result first when present, then memory)."""
        roots = []
        if self.result is not None:
            roots.append(self.result)
        roots.append(self.memory)
        return roots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionSummary @{self.function.name} result={self.result} memory={self.memory}>"


class GraphBuilder:
    """Builds the value-graph representation of one function."""

    def __init__(self, graph: ValueGraph, function: Function,
                 analyses: Optional[FunctionAnalyses] = None):
        if analyses is None:
            # Raises IrreducibleCFGError / ValidationInternalError exactly
            # as the inline computation used to.
            analyses = compute_function_analyses(function)
        elif analyses.function is not function:
            raise ValidationInternalError(
                f"analysis bundle for @{analyses.function.name} used to build @{function.name}"
            )
        self.graph = graph
        self.function = function
        self.dom = analyses.dom
        self.loops = analyses.loops
        self.gates = analyses.gates
        self.memory_effects = analyses.memory_effects
        self.preds = analyses.preds

        self._value_nodes: Dict[int, int] = {}
        self._mem_entry: Dict[int, int] = {}
        self._mem_after: Dict[int, int] = {}
        self._mem_exit: Dict[int, int] = {}
        self._loop_exit_cond: Dict[int, int] = {}
        self._phi_gate_memo: Dict[int, Dict[int, GateExpr]] = {}
        self._alloca_names: Dict[int, str] = {}
        self._building_mem: set = set()
        #: Path conditions of the CFG shape, shared by all of its builds.
        self.path_conditions = self.gates.path_conditions
        self._conditions_before = self.path_conditions.computed
        #: ``(id(gate), id(context))`` -> ``(gate, context, node, epoch)``.
        #: The value holds the gate and the block, so neither id can be
        #: recycled while the entry lives; a hit still checks identity.
        self._gate_nodes: Dict[Tuple[int, int],
                               Tuple[GateExpr, BasicBlock, int, int]] = {}
        #: Bumped whenever a memoized gate translation may have gone stale
        #: (see :meth:`_settle`); entries of older epochs are not reused.
        self._epoch = 0
        self._name_allocas()

    # -- public entry point -------------------------------------------------
    def build(self) -> FunctionSummary:
        """Symbolically evaluate the function; return its summary."""
        summary = self._evaluate()
        self.graph.path_conditions_computed += (
            self.path_conditions.computed - self._conditions_before)
        return summary

    def _evaluate(self) -> FunctionSummary:
        self._precompute_memory()
        ret_blocks = [
            block
            for block in self.dom.reachable_blocks()
            if isinstance(block.terminator, Ret)
        ]
        if not ret_blocks:
            # A function that never returns: its observable state is just the
            # initial memory (nothing the caller can see changes).
            return FunctionSummary(self.function, None, self.graph.make("mem0"))

        entry = self.function.entry
        result_branches: List[Tuple[int, int]] = []
        memory_branches: List[Tuple[int, int]] = []
        for block in ret_blocks:
            terminator = block.terminator
            condition = self._gate_to_node(
                self.gates.path_condition(entry, block, self.path_conditions),
                context=block
            )
            condition = self._wrap_loop_exits_for_block(condition, block)
            memory = self._memory_before(terminator)
            memory = self._wrap_loop_exits_for_block(memory, block)
            memory_branches.append((condition, memory))
            if terminator.value is not None:
                value = self._node_for_use(terminator.value, block)
                value = self._wrap_loop_exits_for_block(value, block)
                result_branches.append((condition, value))

        memory_root = self._combine_branches(memory_branches)
        result_root: Optional[int] = None
        if result_branches:
            result_root = self._combine_branches(result_branches)
        return FunctionSummary(self.function, result_root, memory_root)

    # -- naming ----------------------------------------------------------------
    def _name_allocas(self) -> None:
        index = 0
        for inst in self.function.instructions():
            if isinstance(inst, Alloca):
                name = inst.name if inst.name else f"site{index}"
                self._alloca_names[id(inst)] = name
                index += 1

    # -- small helpers ------------------------------------------------------------
    def _combine_branches(self, branches: List[Tuple[int, int]]) -> int:
        """Combine (condition, value) pairs into a single node."""
        if len(branches) == 1:
            return branches[0][1]
        values = {self.graph.resolve(v) for _, v in branches}
        if len(values) == 1:
            return branches[0][1]
        return self.graph.phi(branches)

    def _loop_chain_outside(self, definition_block: BasicBlock, use_block: Optional[BasicBlock]
                            ) -> List[Loop]:
        """Loops containing the definition but not the use, innermost first."""
        loops: List[Loop] = []
        loop = self.loops.loop_for(definition_block)
        while loop is not None:
            if use_block is not None and loop.contains(use_block):
                break
            loops.append(loop)
            loop = loop.parent
        return loops

    def _wrap_loop_exits(self, node: int, definition_block: BasicBlock,
                         use_block: Optional[BasicBlock]) -> int:
        """Wrap ``node`` in an η for every loop left between definition and use."""
        for loop in self._loop_chain_outside(definition_block, use_block):
            node = self.graph.make("eta", None, [self._exit_condition(loop), node])
        return node

    def _wrap_loop_exits_for_block(self, node: int, block: BasicBlock) -> int:
        """Wrap a node computed at ``block`` in η for every loop containing the block.

        Used for return blocks inside loops (early returns): the observable
        value is the one at the iteration where the function actually
        leaves the loop.
        """
        return self._wrap_loop_exits(node, block, None)

    def _exit_condition(self, loop: Loop) -> int:
        key = id(loop.header)
        if key not in self._loop_exit_cond:
            expr = self.gates.loop_exit_condition(loop, self.path_conditions)
            self._settle(self._loop_exit_cond, key,
                         self._gate_to_node(expr, context=loop.header))
        return self._loop_exit_cond[key]

    # -- gate translation -----------------------------------------------------------
    def _settle(self, table: Dict[int, int], key: int, node: int) -> int:
        """Store a value or loop-exit node; replacing one starts a new epoch.

        Gate translation reads values and loop-exit conditions only
        through these two tables, so its result changes only when an
        entry is replaced: a request that re-entered a value (or exit
        condition) still being built stored a provisional node, and the
        outer request later stores the final one.  Gate translations made
        before that must not be reused, or they would differ from a fresh
        translation.
        """
        previous = table.get(key)
        if previous is not None and previous != node:
            self._epoch += 1
        table[key] = node
        return node

    def _gate_to_node(self, gate: GateExpr, context: BasicBlock) -> int:
        """Translate a gate formula into a graph node (memoized per build)."""
        key = (id(gate), id(context))
        entry = self._gate_nodes.get(key)
        if (entry is not None and entry[0] is gate and entry[1] is context
                and entry[3] == self._epoch):
            return entry[2]
        self.graph.gate_translations += 1
        node = self._translate_gate(gate, context)
        self._gate_nodes[key] = (gate, context, node, self._epoch)
        return node

    def _translate_gate(self, gate: GateExpr, context: BasicBlock) -> int:
        if isinstance(gate, TrueGate):
            return self.graph.true()
        if isinstance(gate, FalseGate):
            return self.graph.false()
        if isinstance(gate, CondGate):
            node = self._node_for_use(self.gates.branch_condition(gate), context)
            return self.graph.not_(node) if gate.negated else node
        if isinstance(gate, ReachedGate):
            return self.graph.make("reach", gate.block_name)
        if isinstance(gate, AndGate):
            result = self.graph.true()
            for operand in gate.operands:
                result = self.graph.and_(result, self._gate_to_node(operand, context))
            return result
        if isinstance(gate, OrGate):
            result = self.graph.false()
            for operand in gate.operands:
                result = self.graph.or_(result, self._gate_to_node(operand, context))
            return result
        raise ValidationInternalError(f"unknown gate expression {gate!r}")

    # -- value translation -----------------------------------------------------------
    def _node_for_use(self, value: Value, use_block: Optional[BasicBlock]) -> int:
        """Node for ``value`` as observed from ``use_block`` (adds η wrappers)."""
        node = self._node_of(value)
        if isinstance(value, Instruction) and value.parent is not None:
            node = self._wrap_loop_exits(node, value.parent, use_block)
        return node

    def _node_of(self, value: Value) -> int:
        """Node for ``value`` at its definition site (memoized)."""
        key = id(value)
        if key in self._value_nodes:
            return self._value_nodes[key]
        return self._settle(self._value_nodes, key, self._translate(value))

    def _translate(self, value: Value) -> int:
        graph = self.graph
        if isinstance(value, ConstantInt):
            return graph.const(value.value, str(value.type))
        if isinstance(value, ConstantFloat):
            return graph.make("const", (value.value, str(value.type)))
        if isinstance(value, ConstantPointerNull):
            return graph.make("const", (0, str(value.type)))
        if isinstance(value, UndefValue):
            return graph.make("undef", str(value.type))
        if isinstance(value, Argument):
            return graph.make("param", value.index)
        if isinstance(value, GlobalVariable):
            return graph.make("global", value.name)
        if isinstance(value, Function):
            return graph.make("global", value.name)
        if isinstance(value, Instruction):
            return self._translate_instruction(value)
        raise ValidationInternalError(f"cannot translate value {value!r}")

    def _translate_instruction(self, inst: Instruction) -> int:
        graph = self.graph
        block = inst.parent
        if isinstance(inst, Phi):
            return self._translate_phi(inst)
        if isinstance(inst, BinaryOperator):
            return graph.make(
                "binop",
                inst.opcode,
                [self._node_for_use(inst.lhs, block), self._node_for_use(inst.rhs, block)],
            )
        if isinstance(inst, ICmp):
            return graph.make(
                "icmp",
                inst.predicate,
                [self._node_for_use(inst.lhs, block), self._node_for_use(inst.rhs, block)],
            )
        if isinstance(inst, Select):
            condition = self._node_for_use(inst.condition, block)
            return graph.phi(
                [
                    (condition, self._node_for_use(inst.if_true, block)),
                    (graph.not_(condition), self._node_for_use(inst.if_false, block)),
                ]
            )
        if isinstance(inst, Cast):
            return graph.make(
                "cast", (inst.opcode, str(inst.type)), [self._node_for_use(inst.value, block)]
            )
        if isinstance(inst, GetElementPtr):
            args = [self._node_for_use(inst.pointer, block)]
            args.extend(self._node_for_use(index, block) for index in inst.indices)
            return graph.make("gep", None, args)
        if isinstance(inst, Alloca):
            return graph.make("alloca", self._alloca_names[id(inst)])
        if isinstance(inst, Load):
            return graph.make(
                "load",
                None,
                [self._node_for_use(inst.pointer, block), self._memory_before(inst)],
            )
        if isinstance(inst, Call):
            return self._translate_call(inst)
        raise ValidationInternalError(f"cannot translate instruction {inst!r}")

    def _translate_call(self, call: Call) -> int:
        block = call.parent
        callee_name = call.callee.name if hasattr(call.callee, "name") else "<indirect>"
        reads = call.may_read_memory()
        writes = call.may_write_memory()
        args = [self._node_for_use(arg, block) for arg in call.args]
        if reads or writes:
            args.append(self._memory_before(call))
        return self.graph.make("call", (callee_name, reads, writes), args)

    def _translate_phi(self, phi: Phi) -> int:
        block = phi.parent
        loop = self.loops.loop_for(block)
        if loop is not None and loop.header is block:
            return self._translate_mu(phi, loop)

        gates = self._phi_gates(block)
        branches: List[Tuple[int, int]] = []
        for value, pred in phi.incoming:
            gate = gates.get(id(pred))
            if gate is None:
                gate = ReachedGate(pred.name)
            condition = self._gate_to_node(gate, context=block)
            node = self._node_for_use(value, block)
            branches.append((condition, node))
        return self._combine_branches(branches) if branches else self.graph.make("undef", "phi")

    def _phi_gates(self, block: BasicBlock) -> Dict[int, GateExpr]:
        """Gate of each incoming edge of ``block`` by predecessor id.

        Memoized per block: every φ of a join shares its gates, so they
        are computed (and translated) once per build, not once per φ.
        """
        gates = self._phi_gate_memo.get(id(block))
        if gates is None:
            gates = {id(pred): gate for pred, gate
                     in self.gates.phi_gates(block, self.path_conditions)}
            self._phi_gate_memo[id(block)] = gates
        return gates

    def _translate_mu(self, phi: Phi, loop: Loop) -> int:
        graph = self.graph
        block = phi.parent
        mu = graph.make_mu()
        self._value_nodes[id(phi)] = mu

        initial_branches: List[Tuple[int, int]] = []
        iteration_branches: List[Tuple[int, int]] = []
        entry_gates = self._phi_gates(block)
        for value, pred in phi.incoming:
            node = self._node_for_use(value, block)
            if loop.contains(pred):
                condition = self._gate_to_node(
                    self.gates.path_condition(loop.header, pred, self.path_conditions),
                    context=block,
                )
                iteration_branches.append((condition, node))
            else:
                gate = entry_gates.get(id(pred), ReachedGate(pred.name))
                condition = self._gate_to_node(gate, context=block)
                initial_branches.append((condition, node))

        if not initial_branches or not iteration_branches:
            # Degenerate "loop" (e.g. unreachable back edge); fall back to a
            # plain gated φ so construction stays total.
            branches = initial_branches + iteration_branches
            node = self._combine_branches(branches) if branches else graph.make("undef", "phi")
            return self._settle(self._value_nodes, id(phi), node)

        initial = self._combine_branches(initial_branches)
        iteration = self._combine_branches(iteration_branches)
        graph.set_args(mu, [initial, iteration])
        return mu

    # -- memory threading ---------------------------------------------------------
    def _precompute_memory(self) -> None:
        """Materialise memory states block-by-block in reverse postorder.

        Every block's entry state only depends on forward predecessors
        (already processed) and on loop-header μ placeholders (created the
        moment the header is reached), so the recursion during symbolic
        evaluation always finds memory states memoized and cycles are
        broken at headers.  The μ iteration arguments — which depend on the
        loop bodies' exits — are filled in afterwards.
        """
        pending: List[Tuple[Loop, int]] = []
        for block in self.dom.reachable_blocks():
            loop = self.loops.loop_for(block)
            if (loop is not None and loop.header is block
                    and self._loop_writes_memory(loop)
                    and id(block) not in self._mem_entry):
                mu = self.graph.make_mu()
                self._mem_entry[id(block)] = mu
                pending.append((loop, mu))
            self._memory_entry(block)
            self._memory_exit(block)
        for loop, mu in pending:
            initial = self._memory_from_edges(loop.header, inside_loop=None, restrict_outside=loop)
            iteration = self._memory_from_edges(loop.header, inside_loop=loop, restrict_outside=None)
            self.graph.set_args(mu, [initial, iteration])

    def _memory_before(self, inst: Instruction) -> int:
        """The abstract memory state just before ``inst`` executes."""
        block = inst.parent
        current = self._memory_entry(block)
        for other in block.instructions:
            if other is inst:
                return current
            if defines_memory(other):
                current = self._memory_after(other, current)
        return current

    def _memory_after(self, inst: Instruction, memory_in: int) -> int:
        key = id(inst)
        if key in self._mem_after:
            return self._mem_after[key]
        graph = self.graph
        block = inst.parent
        if isinstance(inst, Store):
            node = graph.make(
                "store",
                None,
                [
                    self._node_for_use(inst.value, block),
                    self._node_for_use(inst.pointer, block),
                    memory_in,
                ],
            )
        elif isinstance(inst, Call):
            call_node = self._node_of(inst)
            node = graph.make("callmem", None, [call_node])
        else:  # pragma: no cover - defensive
            raise ValidationInternalError(f"{inst!r} does not define memory")
        self._mem_after[key] = node
        return node

    def _memory_entry(self, block: BasicBlock) -> int:
        key = id(block)
        if key in self._mem_entry:
            return self._mem_entry[key]
        graph = self.graph

        if block is self.function.entry:
            node = graph.make("mem0")
            self._mem_entry[key] = node
            return node

        loop = self.loops.loop_for(block)
        if loop is not None and loop.header is block and self._loop_writes_memory(loop):
            mu = graph.make_mu()
            self._mem_entry[key] = mu
            initial = self._memory_from_edges(block, inside_loop=None, restrict_outside=loop)
            iteration = self._memory_from_edges(block, inside_loop=loop, restrict_outside=None)
            graph.set_args(mu, [initial, iteration])
            return mu

        if loop is not None and loop.header is block:
            # Loop does not write memory: the state is whatever flowed in
            # from outside the loop.
            node = self._memory_from_edges(block, inside_loop=None, restrict_outside=loop)
            self._mem_entry[key] = node
            return node

        node = self._memory_from_edges(block, inside_loop=None, restrict_outside=None)
        self._mem_entry[key] = node
        return node

    def _memory_from_edges(self, block: BasicBlock, inside_loop: Optional[Loop],
                           restrict_outside: Optional[Loop]) -> int:
        """Combine predecessors' outgoing memory along the edges into ``block``.

        ``inside_loop`` selects only predecessors inside the given loop (for
        the μ iteration argument); ``restrict_outside`` selects only
        predecessors outside the given loop (for the μ initial argument).
        """
        predecessors = self.preds.get(block, [])
        selected: List[BasicBlock] = []
        for pred in predecessors:
            if inside_loop is not None and not inside_loop.contains(pred):
                continue
            if restrict_outside is not None and restrict_outside.contains(pred):
                continue
            selected.append(pred)
        if not selected:
            return self.graph.make("mem0")

        if inside_loop is not None:
            start = inside_loop.header
        else:
            start = self.dom.idom(block) or self.function.entry

        branches: List[Tuple[int, int]] = []
        for pred in selected:
            memory = self._memory_exit(pred)
            # Loop-exit edges: the memory leaving the loop is the state at
            # the iteration where the loop exits, so wrap in η for every
            # loop that contains the predecessor but not this block — but
            # only when the loop actually writes memory (otherwise the state
            # is invariant across iterations and the η would be noise).
            chain_loop = self.loops.loop_for(pred)
            while chain_loop is not None and not chain_loop.contains(block):
                if self._loop_writes_memory(chain_loop):
                    memory = self.graph.make(
                        "eta", None, [self._exit_condition(chain_loop), memory]
                    )
                chain_loop = chain_loop.parent
            condition = self.graph.and_(
                self._gate_to_node(
                    self.gates.path_condition(start, pred, self.path_conditions),
                    context=block),
                self._gate_to_node(self.gates.edge_condition(pred, block), context=block),
            )
            branches.append((condition, memory))
        return self._combine_branches(branches)

    def _memory_exit(self, block: BasicBlock) -> int:
        key = id(block)
        if key in self._mem_exit:
            return self._mem_exit[key]
        if key in self._building_mem:
            # A memory cycle not broken by a μ (should not happen for
            # reducible CFGs); fall back to an opaque state.
            return self.graph.make("reach", f"mem:{block.name}")
        self._building_mem.add(key)
        current = self._memory_entry(block)
        for inst in block.instructions:
            if defines_memory(inst):
                current = self._memory_after(inst, current)
        self._building_mem.discard(key)
        self._mem_exit[key] = current
        return current

    def _loop_writes_memory(self, loop: Loop) -> bool:
        return any(self.memory_effects.block_writes(b) for b in loop.blocks)


def build_function_graph(graph: ValueGraph, function: Function,
                         manager: Optional[AnalysisManager] = None,
                         fingerprint: Optional[str] = None) -> FunctionSummary:
    """Convenience wrapper: build ``function`` into ``graph``.

    ``fingerprint`` is ``function``'s content fingerprint when the caller
    holds it (it spares the manager printing the function again).  The
    CFG shapes the build had to analyse are added to the graph's
    ``cfg_shapes_computed`` work counter.
    """
    if manager is None:
        analyses = compute_function_analyses(function, fingerprint)
        graph.cfg_shapes_computed += 1
    else:
        computed = manager.shapes_computed
        analyses = manager.analyses_for(function, fingerprint)
        graph.cfg_shapes_computed += manager.shapes_computed - computed
    return GraphBuilder(graph, function, analyses).build()


def build_shared_graph(before: Function, after: Function,
                       manager: Optional[AnalysisManager] = None,
                       ) -> Tuple[ValueGraph, FunctionSummary, FunctionSummary]:
    """Build both functions into one shared graph (the paper's Figure 1).

    When an :class:`AnalysisManager` is given, the per-function analyses
    (CFG predecessors, dominators, loops, gates, memory effects) are
    fetched from — and cached in — it, so a function version appearing in
    several queries (the interior versions of a stepwise pipeline walk)
    is analysed only once.
    """
    graph = ValueGraph()
    summary_before = build_function_graph(graph, before, manager)
    summary_after = build_function_graph(graph, after, manager)
    return graph, summary_before, summary_after


def build_chain_graph(versions: List[Function],
                      manager: Optional[AnalysisManager] = None,
                      fingerprints: Optional[Sequence[str]] = None,
                      ) -> Tuple[ValueGraph, List[FunctionSummary]]:
    """Build a whole checkpoint chain into ONE shared graph.

    This generalizes :func:`build_shared_graph` from 2 versions to the
    k versions of a stepwise pipeline walk: every version is translated
    into the *same* :class:`ValueGraph`, so a sub-term left untouched by
    the pipeline exists **once** no matter how many checkpoints contain
    it — where the per-pair strategy re-translates every interior
    checkpoint twice (as the "after" of step *i* and the "before" of step
    *i + 1*) and re-normalizes the largely identical shared structure
    once per pair.

    Returns ``(graph, summaries)`` with one :class:`FunctionSummary` per
    version, in chain order; ``summaries[i]``/``summaries[i + 1]`` hold
    the goal roots of the adjacent pair validating step *i*.
    ``fingerprints`` are the versions' content fingerprints when the
    caller already computed them (the plan's), so no version is printed
    again.  Checkpoints that share a CFG shape share its analyses and
    path conditions through ``manager``.
    """
    graph = ValueGraph()
    if fingerprints is None:
        fingerprints = [None] * len(versions)
    summaries = [build_function_graph(graph, version, manager, fingerprint)
                 for version, fingerprint in zip(versions, fingerprints)]
    return graph, summaries


def extend_chain_graph(graph: ValueGraph,
                       old_summaries: Dict[str, FunctionSummary],
                       new_versions: List[Function],
                       manager: Optional[AnalysisManager] = None,
                       fingerprints: Optional[List[str]] = None,
                       ) -> Tuple[List[FunctionSummary], int, int]:
    """Extend a retained chain graph with only the *changed* versions.

    The incremental counterpart of :func:`build_chain_graph`: ``graph``
    is a previously constructed (never normalized) chain graph and
    ``old_summaries`` maps the content fingerprint of every version it
    already contains to that version's :class:`FunctionSummary`.  Each
    new version whose fingerprint is known reuses the retained roots
    outright — identical IR translates to the identical gated term, and
    μ placeholders are not hash-consed, so reusing the summary (rather
    than re-translating and praying for consing) is what keeps unchanged
    checkpoints free.  Only fingerprint-misses are symbolically evaluated
    into the graph, where hash-consing shares every sub-term they have in
    common with the retained population.

    Returns ``(summaries, nodes_reused, nodes_built)``: one summary per
    element of ``new_versions`` (reused summaries are rebound to the new
    version object), the number of *pre-existing* nodes the freshly
    built versions reached (the ``subgraph_nodes_reused`` telemetry — 0
    when nothing needed building), and the number of nodes construction
    actually created.
    """
    if fingerprints is None:
        from ..analysis.manager import CHECKPOINT_FINGERPRINTS
        fingerprints = [CHECKPOINT_FINGERPRINTS.fingerprint(version)
                        for version in new_versions]
    watermark = graph.next_id
    summaries: List[FunctionSummary] = []
    fresh_roots: List[int] = []
    for version, fingerprint in zip(new_versions, fingerprints):
        retained = old_summaries.get(fingerprint)
        if retained is not None:
            summaries.append(FunctionSummary(version, retained.result,
                                             retained.memory))
        else:
            summary = build_function_graph(graph, version, manager, fingerprint)
            summaries.append(summary)
            fresh_roots.extend(summary.roots())
    nodes_built = graph.next_id - watermark
    nodes_reused = 0
    if fresh_roots:
        nodes_reused = sum(1 for node_id in graph.reachable(fresh_roots)
                           if node_id < watermark)
    return summaries, nodes_reused, nodes_built


__all__ = [
    "GraphBuilder",
    "FunctionSummary",
    "build_function_graph",
    "build_shared_graph",
    "build_chain_graph",
    "extend_chain_graph",
]
