"""Normalization rewrite rules.

The rules mirror the transformations the LLVM optimizer applies, so that
normalizing both value graphs drives them towards the same normal form
(§4 of the paper).  They are organised into named *groups* matching the
rule sets of the paper's ablation experiments (Figures 6–8):

``boolean``
    General simplification rules (1)–(4): comparisons of a value with
    itself and with boolean literals.
``phi``
    φ-node rules (5)–(6): drop statically-false branches, select the
    branch whose condition is true, collapse φ-nodes whose branches all
    carry the same value.
``constfold``
    Optimization-specific constant folding plus LLVM's canonicalizations
    (``a+a → a<<1``, ``mul a, 2^k → shl a, k``, ``add x, -k → sub x, k``,
    constants to the right, ``icmp`` constant-swap) and the usual
    algebraic identities.
``loadstore``
    Memory rules (10)–(11): loads jump over non-aliasing stores and read
    through must-aliasing ones; overwritten stores disappear.
``eta``
    Loop rules (7)–(9): loops that never execute, loop-invariant μ-nodes,
    plus dropping η around values that do not depend on any μ.
``commuting``
    Rules that rearrange the graph to enable the others: distributing η
    over pure operators ("push η-nodes down towards their μ-nodes") and
    commuting independent stores into a canonical order.

Every rule is a function ``rule(graph, node) -> Optional[int]`` returning
the id of a replacement node, or ``None`` when it does not apply.  Rules
are registered with the :func:`rule` decorator, which declares the node
*kinds* a rule can possibly fire on and the *group* it belongs to; the
engine dispatches through the kind index built by
:func:`build_rule_index` instead of walking a flat rule list, so a node
is only ever handed to the rules that could match its root kind.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..transforms.constfold import (
    fold_cast,
    fold_icmp,
    fold_int_binary,
    is_power_of_two,
    log2_exact,
)
from .galias import graph_must_alias, graph_no_alias
from .graph import ValueGraph
from .nodes import VNode

Rule = Callable[[ValueGraph, VNode], Optional[int]]

#: Every decorated rule, in registration (definition) order.  Within one
#: group this order is the order the engine tries rules on a node.
RULE_REGISTRY: List[Rule] = []


def rule(*, kinds: Sequence[str], group: str) -> Callable[[Rule], Rule]:
    """Register a rewrite rule for the given root node kinds.

    ``kinds`` is the complete set of node kinds the rule can fire on (its
    first ``node.kind != ...`` guard); ``group`` is the ablation group the
    rule belongs to.  The decorator records both on the function
    (``fn.kinds`` / ``fn.group``) and appends it to :data:`RULE_REGISTRY`,
    from which :data:`RULE_GROUPS` and the kind-dispatch index are built.
    """

    def decorate(fn: Rule) -> Rule:
        fn.kinds = tuple(kinds)  # type: ignore[attr-defined]
        fn.group = group  # type: ignore[attr-defined]
        RULE_REGISTRY.append(fn)
        return fn

    return decorate

_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor"})
_SWAPPED_PREDICATE = {
    "eq": "eq", "ne": "ne",
    "slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
    "ult": "ugt", "ule": "uge", "ugt": "ult", "uge": "ule",
}
_REFLEXIVE_TRUE = frozenset({"eq", "sle", "sge", "ule", "uge"})


def _int_bits(type_str: str) -> Optional[int]:
    if type_str.startswith("i") and type_str[1:].isdigit():
        return int(type_str[1:])
    return None


def _const_of(graph: ValueGraph, node_id: int) -> Optional[Tuple[int, str]]:
    node = graph.node(node_id)
    if node.kind == "const" and isinstance(node.data[0], int):
        return node.data
    return None


# ---------------------------------------------------------------------------
# boolean group — general simplification rules (1)–(4)
# ---------------------------------------------------------------------------

@rule(kinds=("icmp",), group="boolean")
def rule_cmp_identical(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``a == a ↓ true`` and ``a != a ↓ false`` (and the other reflexive predicates)."""
    if node.kind != "icmp":
        return None
    lhs, rhs = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    if lhs != rhs:
        return None
    return graph.true() if node.data in _REFLEXIVE_TRUE else graph.false()


@rule(kinds=("icmp",), group="boolean")
def rule_cmp_with_bool_literal(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``a == true ↓ a``, ``a != false ↓ a``, ``a == false ↓ !a``, ``a != true ↓ !a``."""
    if node.kind != "icmp" or node.data not in ("eq", "ne"):
        return None
    lhs, rhs = graph.node(node.args[0]), graph.node(node.args[1])
    for value_id, literal in ((node.args[0], rhs), (node.args[1], lhs)):
        if literal.kind == "const" and literal.data[1] == "i1":
            # Only sound when the compared value itself is an i1.
            if not _is_boolean_node(graph, value_id):
                continue
            is_true_literal = literal.data[0] == 1
            keep = (node.data == "eq") == is_true_literal
            return graph.resolve(value_id) if keep else graph.not_(value_id)
    return None


def _is_boolean_node(graph: ValueGraph, node_id: int) -> bool:
    # Gate formulas are deep, heavily shared DAGs: without a memo the walk
    # revisits shared sub-terms exponentially often, and with a per-call
    # memo every rule call walks the whole and/or DAG below it again.  The
    # memo is the graph's ``boolean_memo``, which ``ValueGraph._merge``
    # drops: between merges no canonical id, kind or argument changes.
    # Only μ-nodes can be cyclic and they are classified as non-boolean
    # without descending, so memoizing on the canonical id is exact.  The
    # walk uses an explicit stack: rules run during *normalization*, which
    # gets no recursion-limit headroom (only graph construction does), and
    # and/or/xor operand chains can be as deep as the gate formulas they
    # encode.
    memo = graph.boolean_memo
    root = graph.resolve(node_id)
    stack = [root]
    while stack:
        current = stack.pop()
        if current in memo:
            continue
        node = graph.node(current)
        if node.kind in ("icmp", "not"):
            memo[current] = True
        elif node.kind == "const":
            memo[current] = node.data[1] == "i1"
        elif node.kind == "binop" and node.data in ("and", "or", "xor"):
            operands = [graph.resolve(arg) for arg in node.args]
            pending = [op for op in operands if op not in memo]
            if pending:
                # Classify the operands first, then revisit this node.
                stack.append(current)
                stack.extend(pending)
            else:
                memo[current] = all(memo[op] for op in operands)
        else:
            memo[current] = False
    return memo[root]


@rule(kinds=("not",), group="boolean")
def rule_not_not(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``!!a ↓ a`` and negation of boolean literals."""
    if node.kind != "not":
        return None
    inner = graph.node(node.args[0])
    if inner.kind == "not":
        return graph.resolve(inner.args[0])
    if inner.is_true():
        return graph.false()
    if inner.is_false():
        return graph.true()
    if inner.kind == "icmp":
        negated = {
            "eq": "ne", "ne": "eq", "slt": "sge", "sle": "sgt", "sgt": "sle",
            "sge": "slt", "ult": "uge", "ule": "ugt", "ugt": "ule", "uge": "ult",
        }[inner.data]
        return graph.make("icmp", negated, list(inner.args))
    return None


@rule(kinds=("binop",), group="boolean")
def rule_bool_connectives(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``and``/``or`` with literal or duplicate operands."""
    if node.kind != "binop" or node.data not in ("and", "or"):
        return None
    if not all(_is_boolean_node(graph, a) for a in node.args):
        return None
    lhs, rhs = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    lhs_node, rhs_node = graph.node(lhs), graph.node(rhs)
    if node.data == "and":
        if lhs_node.is_true():
            return rhs
        if rhs_node.is_true():
            return lhs
        if lhs_node.is_false() or rhs_node.is_false():
            return graph.false()
    else:
        if lhs_node.is_false():
            return rhs
        if rhs_node.is_false():
            return lhs
        if lhs_node.is_true() or rhs_node.is_true():
            return graph.true()
    if lhs == rhs:
        return lhs
    return None


# ---------------------------------------------------------------------------
# phi group — rules (5)–(6)
# ---------------------------------------------------------------------------

@rule(kinds=("phi",), group="phi")
def rule_phi_simplify(graph: ValueGraph, node: VNode) -> Optional[int]:
    """Drop false branches, pick true branches, collapse single-valued φ."""
    if node.kind != "phi":
        return None
    branches = node.phi_branches()
    if not branches:
        return None

    # Rule (5): a branch whose condition is literally true wins.
    for condition, value in branches:
        if graph.node(condition).is_true():
            return graph.resolve(value)

    # Drop branches whose condition is literally false, and duplicates.
    kept: List[Tuple[int, int]] = []
    seen = set()
    changed = False
    for condition, value in branches:
        condition, value = graph.resolve(condition), graph.resolve(value)
        if graph.node(condition).is_false():
            changed = True
            continue
        if (condition, value) in seen:
            changed = True
            continue
        seen.add((condition, value))
        kept.append((condition, value))

    if not kept:
        return None

    # Rule (6): all branches carry the same value.
    first_value = kept[0][1]
    if all(value == first_value for _, value in kept):
        return first_value

    if changed:
        return graph.phi(kept)
    return None


@rule(kinds=("phi",), group="phi")
def rule_phi_merge_same_value(graph: ValueGraph, node: VNode) -> Optional[int]:
    """Merge branches that carry the same value by or-ing their conditions."""
    if node.kind != "phi":
        return None
    branches = node.phi_branches()
    by_value: Dict[int, List[int]] = {}
    order: List[int] = []
    for condition, value in branches:
        condition, value = graph.resolve(condition), graph.resolve(value)
        if value not in by_value:
            by_value[value] = []
            order.append(value)
        by_value[value].append(condition)
    if all(len(conditions) == 1 for conditions in by_value.values()):
        return None
    merged: List[Tuple[int, int]] = []
    for value in order:
        conditions = by_value[value]
        combined = conditions[0]
        for condition in conditions[1:]:
            combined = graph.or_(combined, condition)
        merged.append((combined, value))
    return graph.phi(merged)


# ---------------------------------------------------------------------------
# constfold group — optimization-specific rules
# ---------------------------------------------------------------------------

@rule(kinds=("binop",), group="constfold")
def rule_fold_binop(graph: ValueGraph, node: VNode) -> Optional[int]:
    """Fold binary operations over two integer constants."""
    if node.kind != "binop":
        return None
    lhs = _const_of(graph, node.args[0])
    rhs = _const_of(graph, node.args[1])
    if lhs is None or rhs is None:
        return None
    bits = _int_bits(lhs[1])
    if bits is None:
        return None
    folded = fold_int_binary(node.data, lhs[0], rhs[0], bits)
    if folded is None:
        return None
    return graph.const(folded, lhs[1])


@rule(kinds=("icmp",), group="constfold")
def rule_fold_icmp(graph: ValueGraph, node: VNode) -> Optional[int]:
    """Fold comparisons over two integer constants."""
    if node.kind != "icmp":
        return None
    lhs = _const_of(graph, node.args[0])
    rhs = _const_of(graph, node.args[1])
    if lhs is None or rhs is None:
        return None
    bits = _int_bits(lhs[1]) or 64
    folded = fold_icmp(node.data, lhs[0], rhs[0], bits)
    if folded is None:
        return None
    return graph.true() if folded else graph.false()


@rule(kinds=("cast",), group="constfold")
def rule_fold_cast(graph: ValueGraph, node: VNode) -> Optional[int]:
    """Fold casts of integer constants."""
    if node.kind != "cast":
        return None
    value = _const_of(graph, node.args[0])
    if value is None:
        return None
    opcode, to_type = node.data
    from_bits = _int_bits(value[1])
    to_bits = _int_bits(to_type)
    if from_bits is None or to_bits is None:
        return None
    folded = fold_cast(opcode, value[0], from_bits, to_bits)
    if folded is None:
        return None
    return graph.const(folded, to_type)


@rule(kinds=("binop",), group="constfold")
def rule_algebraic_identity(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``x+0``, ``x*1``, ``x*0``, ``x-x``, ``x^x``, ``x&x``, ``x|x``, shifts by 0."""
    if node.kind != "binop":
        return None
    opcode = node.data
    lhs, rhs = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    lhs_const, rhs_const = _const_of(graph, lhs), _const_of(graph, rhs)

    def zero_like(type_hint: Optional[str]) -> int:
        return graph.const(0, type_hint or "i32")

    if rhs_const is not None:
        value, type_str = rhs_const
        if value == 0 and opcode in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return lhs
        if value == 0 and opcode in ("mul", "and"):
            return zero_like(type_str)
        if value == 1 and opcode in ("mul", "sdiv", "udiv"):
            return lhs
    if lhs_const is not None:
        value, type_str = lhs_const
        if value == 0 and opcode == "add":
            return rhs
        if value == 0 and opcode in ("mul", "and", "sdiv", "udiv", "shl", "lshr", "ashr"):
            return zero_like(type_str)
        if value == 1 and opcode == "mul":
            return rhs
    if lhs == rhs:
        if opcode in ("sub", "xor"):
            rhs_node = graph.node(rhs)
            type_str = None
            if rhs_node.kind == "const":
                type_str = rhs_node.data[1]
            return zero_like(type_str)
        if opcode in ("and", "or"):
            return lhs
    return None


@rule(kinds=("binop",), group="constfold")
def rule_canonical_shape(graph: ValueGraph, node: VNode) -> Optional[int]:
    """LLVM's preferred shapes: ``a+a → a<<1``, ``mul a,2^k → shl a,k``, ``add x,-k → sub x,k``."""
    if node.kind != "binop":
        return None
    opcode = node.data
    lhs, rhs = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    rhs_const = _const_of(graph, rhs)
    lhs_const = _const_of(graph, lhs)

    # Constants to the right for commutative operators.
    if opcode in _COMMUTATIVE and lhs_const is not None and rhs_const is None:
        return graph.make("binop", opcode, [rhs, lhs])

    if opcode == "add" and lhs == rhs:
        one = graph.const(1, _infer_type(graph, lhs))
        return graph.make("binop", "shl", [lhs, one])
    if opcode == "mul" and rhs_const is not None and is_power_of_two(rhs_const[0]):
        shift = graph.const(log2_exact(rhs_const[0]), rhs_const[1])
        return graph.make("binop", "shl", [lhs, shift])
    if opcode == "add" and rhs_const is not None and rhs_const[0] < 0:
        positive = graph.const(-rhs_const[0], rhs_const[1])
        return graph.make("binop", "sub", [lhs, positive])
    if opcode == "sub" and rhs_const is not None and rhs_const[0] < 0:
        positive = graph.const(-rhs_const[0], rhs_const[1])
        return graph.make("binop", "add", [lhs, positive])
    return None


@rule(kinds=("icmp",), group="constfold")
def rule_icmp_constant_right(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``gt 10 a ↓ lt a 10`` — move the constant to the right of comparisons."""
    if node.kind != "icmp":
        return None
    lhs, rhs = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    if _const_of(graph, lhs) is not None and _const_of(graph, rhs) is None:
        return graph.make("icmp", _SWAPPED_PREDICATE[node.data], [rhs, lhs])
    return None


def _infer_type(graph: ValueGraph, node_id: int) -> str:
    """Best-effort integer type of a node (for manufactured constants)."""
    seen = set()
    stack = [node_id]
    while stack:
        current = graph.resolve(stack.pop())
        if current in seen:
            continue
        seen.add(current)
        node = graph.node(current)
        if node.kind == "const":
            return node.data[1]
        if node.kind == "cast":
            return node.data[1]
        stack.extend(node.args)
    return "i32"


# ---------------------------------------------------------------------------
# loadstore group — memory rules (10)–(11)
# ---------------------------------------------------------------------------

@rule(kinds=("load",), group="loadstore")
def rule_load_over_store(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``load(p, store(x,q,m)) ↓ load(p,m)`` (no alias) and ``↓ x`` (must alias)."""
    if node.kind != "load":
        return None
    pointer, memory = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    memory_node = graph.node(memory)
    if memory_node.kind != "store":
        return None
    stored_value, stored_pointer, earlier_memory = (
        graph.resolve(memory_node.args[0]),
        graph.resolve(memory_node.args[1]),
        graph.resolve(memory_node.args[2]),
    )
    if graph_must_alias(graph, pointer, stored_pointer):
        return stored_value
    if graph_no_alias(graph, pointer, stored_pointer):
        return graph.make("load", None, [pointer, earlier_memory])
    return None


@rule(kinds=("store",), group="loadstore")
def rule_store_overwrite(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``store(x, p, store(y, p, m)) ↓ store(x, p, m)`` — the earlier store dies."""
    if node.kind != "store":
        return None
    value, pointer, memory = (
        graph.resolve(node.args[0]),
        graph.resolve(node.args[1]),
        graph.resolve(node.args[2]),
    )
    memory_node = graph.node(memory)
    if memory_node.kind != "store":
        return None
    earlier_pointer = graph.resolve(memory_node.args[1])
    earlier_memory = graph.resolve(memory_node.args[2])
    if graph_must_alias(graph, pointer, earlier_pointer):
        return graph.make("store", None, [value, pointer, earlier_memory])
    return None


def _memory_cycle_clobbers(graph: ValueGraph, mu_id: int, pointer: int,
                           max_nodes: int = 400) -> bool:
    """Could any write on the μ-cycle of a memory μ-node alias ``pointer``?

    Walks the iteration argument of the μ through memory-shaped nodes
    (stores, φ/η over memory) back to the μ itself.  Returns ``True`` —
    "assume clobbered" — for anything it cannot account for (calls,
    foreign μ-nodes, excessive size).
    """
    mu_id = graph.resolve(mu_id)
    mu = graph.node(mu_id)
    if mu.kind != "mu" or len(mu.args) != 2:
        return True
    seen = set()
    stack = [graph.resolve(mu.args[1])]
    visited = 0
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        visited += 1
        if visited > max_nodes:
            return True
        node = graph.node(current)
        if current == mu_id or node.kind == "mem0":
            continue
        if node.kind == "store":
            if not graph_no_alias(graph, pointer, graph.resolve(node.args[1])):
                return True
            stack.append(graph.resolve(node.args[2]))
        elif node.kind == "phi":
            for _, value in node.phi_branches():
                stack.append(graph.resolve(value))
        elif node.kind == "eta":
            stack.append(graph.resolve(node.args[1]))
        elif node.kind == "mu":
            # A different loop's memory μ: recurse into both of its arguments.
            stack.append(graph.resolve(node.args[0]))
            stack.append(graph.resolve(node.args[1]))
        else:
            # callmem, reach, or anything unexpected: assume it clobbers.
            return True
    return False


@rule(kinds=("load",), group="loadstore")
def rule_load_over_mu(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``load(p, μ(m, it)) ↓ load(p, m)`` when no write in the loop may alias ``p``.

    This is the graph-level counterpart of LICM hoisting a load out of a
    loop that never clobbers it (the optimizer justifies the motion with
    the same alias facts).
    """
    if node.kind != "load":
        return None
    pointer = graph.resolve(node.args[0])
    memory = graph.resolve(node.args[1])
    memory_node = graph.node(memory)
    if memory_node.kind != "mu" or len(memory_node.args) != 2:
        return None
    if _memory_cycle_clobbers(graph, memory, pointer):
        return None
    return graph.make("load", None, [pointer, graph.resolve(memory_node.args[0])])


@rule(kinds=("load",), group="loadstore")
def rule_load_over_eta(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``load(p, η(c, m)) ↓ η(c, load(p, m))`` — read the exit-iteration memory.

    Combined with :func:`rule_load_over_mu` and the η-invariance rules this
    lets loads placed after a loop match loads hoisted before it.
    """
    if node.kind != "load":
        return None
    pointer = graph.resolve(node.args[0])
    memory = graph.resolve(node.args[1])
    memory_node = graph.node(memory)
    if memory_node.kind != "eta":
        return None
    inner = graph.make("load", None, [pointer, graph.resolve(memory_node.args[1])])
    return graph.make("eta", None, [graph.resolve(memory_node.args[0]), inner])


@rule(kinds=("store",), group="loadstore")
def rule_store_same_value(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``store(load(p, m), p, m) ↓ m`` — storing back what is already there."""
    if node.kind != "store":
        return None
    value, pointer, memory = (
        graph.resolve(node.args[0]),
        graph.resolve(node.args[1]),
        graph.resolve(node.args[2]),
    )
    value_node = graph.node(value)
    if value_node.kind != "load":
        return None
    if graph.resolve(value_node.args[0]) == pointer and graph.resolve(value_node.args[1]) == memory:
        return memory
    return None


# ---------------------------------------------------------------------------
# eta group — loop rules (7)–(9)
# ---------------------------------------------------------------------------

@rule(kinds=("eta",), group="eta")
def rule_eta_never_executes(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``η(false, μ(x, y)) ↓ x`` — the loop never runs (rule 7)."""
    if node.kind != "eta":
        return None
    condition = graph.node(node.args[0])
    value = graph.node(node.args[1])
    if condition.is_false() and value.kind == "mu" and value.args:
        return graph.resolve(value.args[0])
    return None


@rule(kinds=("eta",), group="eta")
def rule_eta_invariant_mu(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``η(c, μ(x, x)) ↓ x`` and ``η(c, y ↦ μ(x, y)) ↓ x`` (rules 8 and 9)."""
    if node.kind != "eta":
        return None
    value_id = graph.resolve(node.args[1])
    value = graph.node(value_id)
    if value.kind != "mu" or len(value.args) != 2:
        return None
    initial, iteration = graph.resolve(value.args[0]), graph.resolve(value.args[1])
    if iteration == initial or iteration == value_id:
        return initial
    return None


@rule(kinds=("mu",), group="eta")
def rule_mu_invariant(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``μ(x, x) ↓ x`` and ``μ(x, self) ↓ x`` — a loop variable that never varies."""
    if node.kind != "mu" or len(node.args) != 2:
        return None
    initial, iteration = graph.resolve(node.args[0]), graph.resolve(node.args[1])
    if iteration == initial or iteration == graph.resolve(node.id):
        return initial
    return None


@rule(kinds=("eta",), group="eta")
def rule_eta_invariant_value(graph: ValueGraph, node: VNode) -> Optional[int]:
    """``η(c, v) ↓ v`` when ``v`` does not depend on any μ (loop-invariant)."""
    if node.kind != "eta":
        return None
    value = graph.resolve(node.args[1])
    if graph.depends_on_mu(value):
        return None
    return value


# ---------------------------------------------------------------------------
# commuting group
# ---------------------------------------------------------------------------

_ETA_DISTRIBUTE_KINDS = frozenset({"binop", "icmp", "cast", "gep", "not"})


@rule(kinds=("eta",), group="commuting")
def rule_eta_distribute(graph: ValueGraph, node: VNode) -> Optional[int]:
    """Push η through pure operators: ``η(c, f(a, b)) ↓ f(η(c,a), η(c,b))``.

    This moves η-nodes down towards the μ-nodes they select from, which is
    what lets them meet rules (7)–(9).  To avoid exploding the graph the
    rule only fires when at least one operand actually depends on a μ.
    """
    if node.kind != "eta":
        return None
    condition = graph.resolve(node.args[0])
    value_id = graph.resolve(node.args[1])
    value = graph.node(value_id)
    if value.kind not in _ETA_DISTRIBUTE_KINDS:
        return None
    if not graph.depends_on_mu(value_id):
        return None
    new_args = [
        graph.make("eta", None, [condition, graph.resolve(arg)]) for arg in value.args
    ]
    return graph.make(value.kind, value.data, new_args)


@rule(kinds=("store",), group="commuting")
def rule_store_commute(graph: ValueGraph, node: VNode) -> Optional[int]:
    """Order independent adjacent stores canonically.

    ``store(x, p, store(y, q, m))`` with ``p``/``q`` provably disjoint can
    be written in either order; pick the one whose pointer has the smaller
    structural rendering so both functions agree.
    """
    if node.kind != "store":
        return None
    value, pointer, memory = (
        graph.resolve(node.args[0]),
        graph.resolve(node.args[1]),
        graph.resolve(node.args[2]),
    )
    memory_node = graph.node(memory)
    if memory_node.kind != "store":
        return None
    inner_value = graph.resolve(memory_node.args[0])
    inner_pointer = graph.resolve(memory_node.args[1])
    inner_memory = graph.resolve(memory_node.args[2])
    if not graph_no_alias(graph, pointer, inner_pointer):
        return None
    outer_key = graph.format_node(pointer, max_depth=4)
    inner_key = graph.format_node(inner_pointer, max_depth=4)
    if outer_key >= inner_key:
        return None
    swapped_inner = graph.make("store", None, [value, pointer, inner_memory])
    return graph.make("store", None, [inner_value, inner_pointer, swapped_inner])


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _groups_from_registry() -> Dict[str, List[Rule]]:
    groups: Dict[str, List[Rule]] = {}
    for registered in RULE_REGISTRY:
        groups.setdefault(registered.group, []).append(registered)
    return groups


#: Rule groups in the order used by the paper's ablations, derived from
#: the :func:`rule` decorator registry (definition order within a group).
RULE_GROUPS: Dict[str, List[Rule]] = _groups_from_registry()

#: Every group name, in presentation order.
ALL_RULE_GROUPS: Tuple[str, ...] = tuple(RULE_GROUPS)


def rules_for(groups) -> List[Rule]:
    """The concatenated rule list for an iterable of group names."""
    selected: List[Rule] = []
    for group in groups:
        if group not in RULE_GROUPS:
            raise KeyError(f"unknown rule group {group!r} (known: {sorted(RULE_GROUPS)})")
        selected.extend(RULE_GROUPS[group])
    return selected


def build_rule_index(groups) -> Dict[str, Tuple[Rule, ...]]:
    """A kind → rules dispatch index for an iterable of group names.

    The index maps each node kind to the rules (from the enabled groups)
    whose declared ``kinds`` include it, preserving the order
    :func:`rules_for` would try them in — so dispatching through the index
    applies exactly the same rule, just without invoking every rule whose
    kind guard would reject the node.
    """
    index: Dict[str, List[Rule]] = {}
    for selected in rules_for(groups):
        for kind in selected.kinds:
            index.setdefault(kind, []).append(selected)
    return {kind: tuple(rules) for kind, rules in index.items()}


__all__ = ["Rule", "RULE_GROUPS", "ALL_RULE_GROUPS", "RULE_REGISTRY",
           "rule", "rules_for", "build_rule_index"]
