"""The per-function validation entry points.

``validate(before, after)`` is the paper's ``validate fi fo``: build both
functions into one shared value graph, normalize, and report whether the
observable roots (return value and final memory state) merged into the
same nodes.  A positive answer means: *if the original function terminates
without a runtime error, the transformed function computes the same return
value and leaves memory in the same state* (§2's guarantee).

``validate_chain(versions)`` generalizes the shared graph from 2 versions
to a whole checkpoint chain: all k versions are hash-consed into ONE
graph (:func:`repro.vgraph.builder.build_chain_graph`), which is
normalized **once** against every adjacent pair's goal roots; the per-pair
verdicts are then read off the single normalized graph.  Accepts read off
the chain are exact — two roots merged during construction iff they are
structurally identical (a graph-independent fact), and normalization of
the union applies at least the rewrites either pair-local run would — so
the stepwise driver consumes them directly and re-checks *rejecting*
pairs (unless the outcome marks them authoritative, see
:class:`ChainOutcome`) with an isolated two-version :func:`validate`,
keeping chain-mode verdicts identical to the per-pair strategy while
paying for one build and one normalization instead of k.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.manager import AnalysisManager
from ..errors import IrreducibleCFGError, ReproError, ValidationInternalError
from ..ir.module import Function
from ..vgraph.builder import (FunctionSummary, build_chain_graph,
                              build_shared_graph)
from ..vgraph.graph import ValueGraph
from ..vgraph.normalize import (
    NormalizationStats,
    Normalizer,
    unobservable_stores,
)
from . import faults
from .config import DEFAULT_CONFIG, ValidatorConfig

#: Synthetic denial reasons that say nothing about a pair's semantics and
#: therefore must NEVER enter the proof cache: a rerun with a larger
#: budget/timeout, or after the poison source is fixed, must re-validate.
TIMEOUT = "timeout"
QUARANTINED = "quarantined"
UNCACHEABLE_REASONS = ("budget-exhausted", TIMEOUT, QUARANTINED)


@dataclass
class ValidationResult:
    """Outcome of validating one function pair."""

    #: Name of the function that was validated.
    function_name: str
    #: Did the two functions' value graphs merge?
    is_success: bool
    #: Short machine-readable reason.  Successes: ``"equal"`` (the roots
    #: merged during normalization), ``"trivially-equal"`` (they merged
    #: during construction already) or ``"stepwise-equal"`` (an aggregate
    #: over a stepwise pipeline walk, see the driver).  Rejections:
    #: ``"normalization-exhausted"`` (normalization finished without
    #: merging the roots), ``"irreducible-cfg"`` (the front end rejects
    #: irreducible control flow), ``"build-error"`` (graph *construction*
    #: failed — unexpected IR or recursion blow-up) or
    #: ``"normalize-error"`` (construction succeeded but an internal error
    #: was raised while *normalizing* the graph).  Three synthetic
    #: rejections exist outside validation proper (none says anything
    #: about the pair's semantics, so none is ever cached — see
    #: :data:`UNCACHEABLE_REASONS`): ``"budget-exhausted"`` (a
    #: per-request :class:`~repro.validator.scheduler.budget.RequestBudget`
    #: could not afford this query), ``"timeout"`` (the pair exceeded
    #: ``config.pair_timeout`` wall-clock — see :func:`validate_bounded`)
    #: and ``"quarantined"`` (the pair crashed or timed out workers
    #: ``config.max_pair_retries`` times and the supervisor isolated it
    #: rather than let it kill the backend).
    reason: str
    #: Wall-clock seconds spent on this validation.
    elapsed: float = 0.0
    #: Number of nodes in the shared graph after construction.
    graph_nodes: int = 0
    #: Normalization statistics (empty when construction failed).  On top
    #: of the engine counters, fresh per-pair validations record the
    #: deterministic work counters ``nodes_built`` (nodes created while
    #: constructing the graph), ``nodes_created`` (total nodes ever
    #: created, including normalization-manufactured ones),
    #: ``normalize_runs``, ``gate_translations`` (gate formulas translated
    #: during construction), ``make_calls`` (node requests during
    #: construction, hash-cons hits included) — the counters the
    #: chain-graph benchmarks and the CI perf guard compare — plus
    #: ``path_conditions_computed`` (gate path conditions computed, shape
    #: memo hits excluded) and ``cfg_shapes_computed`` (CFG shapes whose
    #: analyses the build computed).
    stats: Dict[str, int] = field(default_factory=dict)
    #: Human-readable detail for failures (best-effort diff rendering).
    detail: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.is_success


def validate(before: Function, after: Function,
             config: Optional[ValidatorConfig] = None,
             manager: Optional[AnalysisManager] = None) -> ValidationResult:
    """Validate that ``after`` preserves the semantics of ``before``.

    Any internal failure (irreducible CFG, unexpected IR, recursion blow-up)
    is reported as a *rejection*, never as a success — the driver then keeps
    the original function, exactly as the paper's ``llvm-md`` wrapper does.

    ``manager`` optionally shares per-function analyses (dominators, loops,
    gates, ...) across queries touching the same function versions — the
    stepwise strategies pass one so interior pipeline checkpoints are
    analysed once and consumed twice.
    """
    config = config or DEFAULT_CONFIG
    start = time.perf_counter()
    old_limit = sys.getrecursionlimit()
    # Only graph *construction* recurses (symbolic evaluation follows the
    # SSA def-use chains); every normalization-phase walk — rules, cycle
    # unification, partition refinement, signatures — is iterative, so
    # the raised limit is scoped to the build.
    sys.setrecursionlimit(max(old_limit, config.recursion_limit))
    try:
        graph, summary_before, summary_after = build_shared_graph(before, after, manager)
    except IrreducibleCFGError:
        return ValidationResult(before.name, False, "irreducible-cfg",
                                elapsed=time.perf_counter() - start)
    except (ReproError, RecursionError) as error:
        return ValidationResult(before.name, False, "build-error",
                                elapsed=time.perf_counter() - start, detail=str(error))
    finally:
        sys.setrecursionlimit(old_limit)

    nodes_built = graph.next_id
    construction = construction_counters(graph)
    goal_pairs = [
        (summary_before.result, summary_after.result),
        (summary_before.memory, summary_after.memory),
    ]

    try:
        normalizer = Normalizer(
            graph,
            rule_groups=config.rule_groups,
            matcher=config.matcher,
            max_iterations=config.max_iterations,
            engine=config.engine,
        )
        matched, stats = normalizer.normalize_until_equal(goal_pairs)
    except (ReproError, RecursionError) as error:
        # Construction succeeded, so this is a *normalization* failure —
        # reporting it as "build-error" (as this path once did) would
        # mislead anyone triaging rejections.
        return ValidationResult(
            before.name, False, "normalize-error",
            elapsed=time.perf_counter() - start,
            graph_nodes=graph.live_node_count(), detail=str(error),
        )

    counters = _work_counters(stats, nodes_built, graph.next_id, construction)
    elapsed = time.perf_counter() - start
    if matched:
        reason = "trivially-equal" if stats.trivially_equal else "equal"
        return ValidationResult(before.name, True, reason, elapsed=elapsed,
                                graph_nodes=graph.live_node_count(), stats=counters)

    detail = _failure_detail(graph, summary_before, summary_after)
    return ValidationResult(before.name, False, "normalization-exhausted", elapsed=elapsed,
                            graph_nodes=graph.live_node_count(), stats=counters,
                            detail=detail)


def timeout_result(name: str, limit: float, elapsed: float) -> ValidationResult:
    """The synthetic ``"timeout"`` denial for one over-budget pair."""
    return ValidationResult(
        name, False, TIMEOUT, elapsed=elapsed,
        detail=f"pair validation exceeded pair_timeout={limit:g}s "
               f"(ran {elapsed:.3f}s); not cached — retry with a larger bound")


def quarantined_result(name: str, casualties: int, why: str) -> ValidationResult:
    """The synthetic ``"quarantined"`` denial for one poison pair."""
    return ValidationResult(
        name, False, QUARANTINED,
        detail=f"pair quarantined after {casualties} worker "
               f"casualt{'y' if casualties == 1 else 'ies'} ({why}); "
               f"not cached — verdict says nothing about the pair's semantics")


def validate_bounded(before: Function, after: Function,
                     config: Optional[ValidatorConfig] = None,
                     manager: Optional[AnalysisManager] = None
                     ) -> ValidationResult:
    """:func:`validate` under ``config.pair_timeout`` and ``fault_plan``.

    The hot-path entry every executor/provider uses for *pair* queries.
    With neither knob set it is exactly :func:`validate`.  With a
    timeout, the pair runs under a :class:`~repro.validator.faults.watchdog`
    — preemptive (``SIGALRM``) in main threads, which covers the serial
    driver and the steal worker processes; post-hoc (same verdict,
    later) on non-main threads like the service daemon's ``to_thread``
    workers — and an over-budget pair settles as the uncached
    ``"timeout"`` denial instead of blocking everything behind it.
    """
    config = config or DEFAULT_CONFIG
    plan, limit = config.fault_plan, config.pair_timeout
    if plan is None and not limit:
        return validate(before, after, config, manager=manager)
    guard = faults.watchdog(limit)
    try:
        with guard:
            if plan is not None:
                faults.maybe_fire(plan, "pair", detail=before.name)
            result = validate(before, after, config, manager=manager)
    except faults.PairTimeout:
        return timeout_result(before.name, limit, guard.elapsed)
    if guard.expired():
        # The non-main-thread (post-hoc) path: the work already ran to
        # completion, but the verdict must match what the preemptive
        # path would have settled — and must stay out of the cache.
        return timeout_result(before.name, limit, guard.elapsed)
    return result


#: Construction work counters a :class:`ValueGraph` accumulates while
#: versions are built into it (reported per run and per chain).
CONSTRUCTION_COUNTERS = ("gate_translations", "make_calls",
                         "path_conditions_computed", "cfg_shapes_computed")


def construction_counters(graph: ValueGraph) -> Dict[str, int]:
    """The graph's :data:`CONSTRUCTION_COUNTERS`; read them before normalizing
    (rules call ``make`` too)."""
    return {name: getattr(graph, name) for name in CONSTRUCTION_COUNTERS}


def _work_counters(stats: NormalizationStats, nodes_built: int,
                   nodes_created: int, construction: Dict[str, int]) -> Dict[str, int]:
    """Engine stats plus the deterministic work counters of one run."""
    counters = stats.as_dict()
    counters["nodes_built"] = nodes_built
    counters["nodes_created"] = nodes_created
    counters["normalize_runs"] = 1
    counters.update(construction)
    return counters


@dataclass
class ChainOutcome:
    """Raw result of validating a whole checkpoint chain from one graph.

    ``pair_results[i]`` is the verdict of the adjacent pair
    ``(versions[i], versions[i + 1])`` as read off the shared chain
    graph.  Accepts are always exact: two roots are equal only when they
    actually merged, construction-time equality is structural identity,
    and the union graph applies at least every rewrite a pair-local run
    would.  Rejections are exact when ``rejects_trusted`` holds — the
    normalization reached a natural rewrite fixpoint *and* no rejecting
    pair shows a pruning-scope divergence.  At a fixpoint, a sub-term
    another version eliminated (and an earlier, accepted pair therefore
    proved equal to its replacement) has merged away and can no longer
    inhibit the pair-scoped rules; but the ``loadstore`` group's
    dead-store pruning is *root-scoped*, and the chain graph's goal set
    is the union of every version's roots, so a store that is dead in an
    isolated two-version graph can stay observable here (an earlier
    checkpoint still loads the shared allocation) and keep a pair's
    memory goals apart even at a fixpoint.  :func:`validate_chain`
    therefore re-runs the pruning analysis scoped to each *rejecting*
    pair's own roots; when any such pair holds a pair-dead store — or
    when normalization was cut off by the iteration bound — consumers
    must re-check rejections with an isolated per-pair :func:`validate`
    before acting on them.
    When the chain itself could not be built or normalized, ``fallback``
    is true and every pair result already *is* an isolated per-pair
    verdict — or, under ``validate_chain(..., eager_fallback=False)``,
    ``pair_results`` is empty and the caller validates per-pair lazily.
    """

    function_name: str
    pair_results: List[ValidationResult]
    #: Work telemetry of the chain run (see the driver's ``chain_stats``).
    chain_stats: Dict[str, int]
    #: Raw verdict of the (original, final) pair — the stepwise strategy's
    #: whole-query fallback — read off the same graph (``None`` when the
    #: chain fell back to isolated per-pair validation, or for 2-version
    #: chains where the single pair *is* the whole pair).  Trustworthy on
    #: exactly the same terms as ``pair_results``.
    whole_result: Optional[ValidationResult] = None
    #: Chain construction/normalization failed; per-pair results inside.
    fallback: bool = False
    #: Normalization reached a natural fixpoint and no rejecting pair
    #: holds a store that only its isolated pair graph could prune, so
    #: read-off rejections are as authoritative as a per-pair run's
    #: (see above).
    rejects_trusted: bool = False


def validate_chain(versions: Sequence[Function],
                   config: Optional[ValidatorConfig] = None,
                   manager: Optional[AnalysisManager] = None,
                   eager_fallback: bool = True,
                   fingerprints: Optional[Sequence[str]] = None) -> ChainOutcome:
    """Validate every adjacent pair of a checkpoint chain from ONE graph.

    All ``len(versions)`` checkpoints are hash-consed into a single
    :class:`~repro.vgraph.graph.ValueGraph` and normalized once against
    the union of every adjacent pair's goal roots; the per-pair verdicts
    are read off the normalized graph.  This replaces the per-pair
    strategy's ``k - 1`` independent build+normalize runs (each of which
    translates both endpoints afresh) with one build and one
    normalization.

    The function is *total*: any construction or normalization failure
    degrades to the per-pair path (``fallback=True``).  With
    ``eager_fallback`` (the default — what the sharded workers need,
    since they must return a complete verdict list) the fallback runs an
    isolated :func:`validate` for every adjacent pair; with
    ``eager_fallback=False`` it returns *empty* ``pair_results`` and the
    caller validates per-pair lazily — the serial driver uses this so a
    broken chain whose first pair already rejects never pays for the
    pairs the stepwise walk would not have consumed.

    Without a ``manager`` the chain gets its own (bounded by
    ``config.analysis_cache_size``), so checkpoints that share a CFG
    shape share its analyses.  ``fingerprints`` are the versions'
    content fingerprints when the caller holds them (the plan's).
    """
    config = config or DEFAULT_CONFIG
    if len(versions) < 2:
        raise ValidationInternalError("a checkpoint chain needs at least 2 versions")
    name = versions[0].name
    start = time.perf_counter()
    if manager is None:
        manager = AnalysisManager(max_entries=config.analysis_cache_size or None)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, config.recursion_limit))
    try:
        graph, summaries = build_chain_graph(list(versions), manager, fingerprints)
    except (ReproError, RecursionError):
        # Which version is at fault decides which pairs fail; the
        # isolated per-pair runs reproduce exactly the per-pair strategy.
        return _chain_fallback(versions, config, manager, eager_fallback)
    finally:
        sys.setrecursionlimit(old_limit)

    nodes_built = graph.next_id
    construction = construction_counters(graph)
    # Totality: everything between construction and read-off — summary
    # read-off, the triviality and baseline reachability walks, and the
    # normalization itself — degrades to the per-pair oracle on *any*
    # failure, not just the ReproError/RecursionError pair construction
    # raises.  A genuine per-pair failure reproduces in the fallback.
    try:
        pair_goals: List[List[Tuple[Optional[int], Optional[int]]]] = []
        for left, right in zip(summaries, summaries[1:]):
            pair_goals.append([
                (left.result, right.result),
                (left.memory, right.memory),
            ])
        # The (original, final) pair — the stepwise whole-query fallback
        # — is free to answer from the same graph; for 2-version chains
        # it IS the single adjacent pair.
        whole_goals: Optional[List[Tuple[Optional[int], Optional[int]]]] = None
        if len(versions) > 2:
            whole_goals = [
                (summaries[0].result, summaries[-1].result),
                (summaries[0].memory, summaries[-1].memory),
            ]
        all_goals = [goal for goals in pair_goals for goal in goals]
        if whole_goals is not None:
            all_goals += whole_goals

        # Pre-normalization equality is structural identity — a
        # graph-size independent fact, so "trivially-equal" means exactly
        # what it means on the per-pair path.
        trivially = [all(_goal_equal(graph, goal) for goal in goals)
                     for goals in pair_goals]
        whole_trivially = (whole_goals is not None
                           and all(_goal_equal(graph, goal) for goal in whole_goals))

        baseline_nodes = _pair_baseline_nodes(graph, summaries)

        normalizer = Normalizer(
            graph,
            rule_groups=config.rule_groups,
            matcher=config.matcher,
            max_iterations=config.max_iterations,
            engine=config.engine,
        )
        _, stats = normalizer.normalize_until_equal(all_goals)
    except Exception:
        return _chain_fallback(versions, config, manager, eager_fallback)

    elapsed = time.perf_counter() - start
    graph_nodes = graph.live_node_count()
    pair_results: List[ValidationResult] = []
    for index, goals in enumerate(pair_goals):
        merged = all(_goal_equal(graph, goal) for goal in goals)
        if merged:
            reason = "trivially-equal" if trivially[index] else "equal"
            result = ValidationResult(name, True, reason,
                                      elapsed=elapsed if index == 0 else 0.0,
                                      graph_nodes=graph_nodes)
        else:
            detail = _failure_detail(graph, summaries[index], summaries[index + 1])
            result = ValidationResult(name, False, "normalization-exhausted",
                                      elapsed=elapsed if index == 0 else 0.0,
                                      graph_nodes=graph_nodes, detail=detail)
        pair_results.append(result)

    whole_result: Optional[ValidationResult] = None
    if whole_goals is not None:
        if all(_goal_equal(graph, goal) for goal in whole_goals):
            reason = "trivially-equal" if whole_trivially else "equal"
            whole_result = ValidationResult(name, True, reason,
                                            graph_nodes=graph_nodes)
        else:
            whole_result = ValidationResult(
                name, False, "normalization-exhausted", graph_nodes=graph_nodes,
                detail=_failure_detail(graph, summaries[0], summaries[-1]))

    rejects_trusted = stats.reached_fixpoint
    if rejects_trusted and "loadstore" in normalizer.rule_groups:
        # Observability pruning is *root-scoped*, and the chain graph's
        # goal set spans every version's roots: a store that is dead in
        # an isolated (v_i, v_i+1) graph — the DSE case — can stay
        # observable here because an earlier checkpoint still loads the
        # shared allocation, so the pair's memory goals never merge even
        # at a natural fixpoint (the fixpoint argument covers rule
        # inhibition, not pruning scope).  Detect exactly that
        # divergence: the union-scoped pruning left nothing union-dead,
        # so any store that is dead under a *rejecting pair's own* roots
        # marks a prune the isolated run performs and this graph cannot
        # — the rejection is then not authoritative and every consumer
        # re-checks it per-pair, as for iteration-capped runs.  Loads
        # and escapes only disappear as normalization progresses, so a
        # pair with no pair-dead store at the fixpoint never diverged.
        rejecting_goals = [goals for result, goals
                           in zip(pair_results, pair_goals)
                           if not result.is_success]
        if whole_result is not None and not whole_result.is_success:
            rejecting_goals.append(whole_goals)
        for goals in rejecting_goals:
            pair_roots = [node for goal in goals for node in goal
                          if node is not None]
            if unobservable_stores(graph, pair_roots):
                rejects_trusted = False
                break
    chain_stats = _chain_stats(len(versions), nodes_built, graph.next_id,
                               baseline_nodes, stats, construction)
    return ChainOutcome(name, pair_results, chain_stats,
                        whole_result=whole_result,
                        rejects_trusted=rejects_trusted)


def validate_chain_delta(graph: ValueGraph,
                         summaries: Sequence[FunctionSummary],
                         dirty_indices: Sequence[int],
                         config: Optional[ValidatorConfig] = None,
                         nodes_built: int = 0,
                         nodes_reused: int = 0,
                         construction: Optional[Dict[str, int]] = None,
                         ) -> Optional[Tuple[Dict[int, ValidationResult],
                                             Dict[str, int]]]:
    """Read only the *dirty* pairs' verdicts off a retained chain graph.

    ``graph`` is a pristine (constructed, never normalized) chain graph
    already extended with the current versions
    (:func:`~repro.vgraph.builder.extend_chain_graph`); ``summaries``
    hold every current version's roots and ``dirty_indices`` name the
    adjacent pairs whose endpoints changed since the previous run.  The
    graph is cloned down to the current roots — retired versions' nodes
    must neither inhabit the work graph nor join the first round's full
    sharing scan — and the clone is normalized against the union of the
    dirty pairs' goals only, exactly the scope a cold
    :func:`validate_chain` over just those pairs would use.

    Accepts read off the clone are exact on :func:`validate_chain`'s
    terms (construction-time merging is structural identity, and the
    union of the dirty goals applies at least every pair-local rewrite).
    Rejections are **never** authoritative here — the dirty goal union
    differs from both the full-chain union and the isolated pair scope —
    so the incremental driver re-checks every read-off rejection with an
    isolated per-pair :func:`validate`, which is what keeps incremental
    records signature-identical to cold ones.

    Returns ``(verdicts, chain_stats)`` with one entry per dirty index,
    or ``None`` when anything fails — the caller then falls back to
    isolated per-pair validation and drops the retained state.
    ``nodes_built``/``nodes_reused`` and ``construction`` (the extension's
    :data:`CONSTRUCTION_COUNTERS`) are its construction telemetry,
    threaded into the returned ``chain_stats``.
    """
    config = config or DEFAULT_CONFIG
    if not dirty_indices:
        raise ValidationInternalError("validate_chain_delta needs >= 1 dirty pair")
    name = summaries[0].function.name
    start = time.perf_counter()
    try:
        roots = [node for summary in summaries for node in summary.roots()]
        work = graph.clone(roots=roots)
        pair_goals: Dict[int, List[Tuple[Optional[int], Optional[int]]]] = {}
        for index in dirty_indices:
            left, right = summaries[index], summaries[index + 1]
            pair_goals[index] = [
                (left.result, right.result),
                (left.memory, right.memory),
            ]
        all_goals = [goal for goals in pair_goals.values() for goal in goals]
        trivially = {index: all(_goal_equal(work, goal) for goal in goals)
                     for index, goals in pair_goals.items()}
        reach = {index: work.reachable(summaries[index].roots())
                 for pair in dirty_indices for index in (pair, pair + 1)}
        baseline_nodes = sum(len(reach[index] | reach[index + 1])
                             for index in dirty_indices)
        created_watermark = work.next_id
        normalizer = Normalizer(
            work,
            rule_groups=config.rule_groups,
            matcher=config.matcher,
            max_iterations=config.max_iterations,
            engine=config.engine,
        )
        _, stats = normalizer.normalize_until_equal(all_goals)
    except Exception:
        return None

    elapsed = time.perf_counter() - start
    graph_nodes = work.live_node_count()
    verdicts: Dict[int, ValidationResult] = {}
    for position, index in enumerate(dirty_indices):
        goals = pair_goals[index]
        merged = all(_goal_equal(work, goal) for goal in goals)
        if merged:
            reason = "trivially-equal" if trivially[index] else "equal"
            verdicts[index] = ValidationResult(
                name, True, reason, elapsed=elapsed if position == 0 else 0.0,
                graph_nodes=graph_nodes)
        else:
            detail = _failure_detail(work, summaries[index], summaries[index + 1])
            verdicts[index] = ValidationResult(
                name, False, "normalization-exhausted",
                elapsed=elapsed if position == 0 else 0.0,
                graph_nodes=graph_nodes, detail=detail)

    chain_stats = _chain_stats(len(summaries), nodes_built,
                               nodes_built + (work.next_id - created_watermark),
                               baseline_nodes, stats, construction or {})
    chain_stats["chain_pairs"] = len(dirty_indices)
    chain_stats["chain_normalizations_saved"] = len(dirty_indices) - 1
    chain_stats["chain_nodes_reused"] = nodes_reused
    chain_stats["chain_pairs_skipped"] = 0
    return verdicts, chain_stats


def _goal_equal(graph, goal: Tuple[Optional[int], Optional[int]]) -> bool:
    left, right = goal
    if left is None and right is None:
        return True
    if left is None or right is None:
        return False
    return graph.same(left, right)


def _pair_baseline_nodes(graph, summaries) -> int:
    """Estimate of the nodes the per-pair strategy would construct.

    Each adjacent pair's fresh two-version graph holds (about) the union
    of the two versions' reachable sub-graphs; summing those unions over
    the chain is the "2×-per-pair" construction baseline the
    ``chain_stats`` telemetry reports against.  Computed before
    normalization, from one reachability walk per version.
    """
    reach = [graph.reachable(summary.roots()) for summary in summaries]
    return sum(len(left | right) for left, right in zip(reach, reach[1:]))


def _chain_stats(versions: int, nodes_built: int, nodes_created: int,
                 baseline_nodes: int, stats: NormalizationStats,
                 construction: Dict[str, int]) -> Dict[str, int]:
    chain_stats = {
        "chains": 1,
        "chain_versions": versions,
        "chain_pairs": versions - 1,
        "chain_nodes_built": nodes_built,
        "chain_nodes_created": nodes_created,
        "chain_pair_baseline_nodes": baseline_nodes,
        "chain_rounds": stats.iterations,
        "chain_rule_invocations": stats.rule_invocations,
        "chain_rewrites": stats.rewrites,
        "chain_sharing_merges": stats.sharing_merges,
        "chain_cycle_merges": stats.cycle_merges,
        "chain_normalizations_saved": versions - 2,
        "chain_fallbacks": 0,
    }
    for name in CONSTRUCTION_COUNTERS:
        chain_stats[f"chain_{name}"] = construction.get(name, 0)
    return chain_stats


def _chain_fallback(versions: Sequence[Function], config: ValidatorConfig,
                    manager: Optional[AnalysisManager],
                    eager: bool) -> ChainOutcome:
    """Per-pair fallback outcome: eager (complete verdicts) or lazy (empty)."""
    pair_results = []
    if eager:
        pair_results = [validate(before, after, config, manager=manager)
                        for before, after in zip(versions, versions[1:])]
    chain_stats = {
        "chains": 0,
        "chain_versions": len(versions),
        "chain_pairs": len(versions) - 1,
        "chain_nodes_built": 0,
        "chain_nodes_created": 0,
        "chain_pair_baseline_nodes": 0,
        "chain_rounds": 0,
        "chain_rule_invocations": 0,
        "chain_rewrites": 0,
        "chain_sharing_merges": 0,
        "chain_cycle_merges": 0,
        "chain_normalizations_saved": 0,
        "chain_fallbacks": 1,
    }
    chain_stats.update((f"chain_{name}", 0) for name in CONSTRUCTION_COUNTERS)
    return ChainOutcome(versions[0].name, pair_results, chain_stats,
                        fallback=True)


def _failure_detail(graph, summary_before, summary_after) -> str:
    """Render the mismatching roots (bounded depth) for diagnostics."""
    lines = []
    if summary_before.result is not None or summary_after.result is not None:
        left = graph.format_node(summary_before.result, 5) if summary_before.result is not None else "<void>"
        right = graph.format_node(summary_after.result, 5) if summary_after.result is not None else "<void>"
        if (summary_before.result is None or summary_after.result is None
                or not graph.same(summary_before.result, summary_after.result)):
            lines.append(f"result:   before = {left}")
            lines.append(f"          after  = {right}")
    if not graph.same(summary_before.memory, summary_after.memory):
        lines.append(f"memory:   before = {graph.format_node(summary_before.memory, 5)}")
        lines.append(f"          after  = {graph.format_node(summary_after.memory, 5)}")
    return "\n".join(lines)


def validate_or_raise(before: Function, after: Function,
                      config: Optional[ValidatorConfig] = None) -> ValidationResult:
    """Like :func:`validate` but raises on rejection (useful in tests)."""
    result = validate(before, after, config)
    if not result.is_success:
        raise ValidationInternalError(
            f"validation of @{before.name} failed ({result.reason})\n{result.detail}"
        )
    return result


__all__ = ["validate", "validate_bounded", "validate_chain",
           "validate_chain_delta", "validate_or_raise", "ValidationResult",
           "ChainOutcome", "TIMEOUT", "QUARANTINED", "UNCACHEABLE_REASONS",
           "timeout_result", "quarantined_result"]
