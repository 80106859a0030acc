"""Experiment runners that regenerate the paper's tables and figures.

Each function returns plain data (lists of row dicts or nested dicts) so
it can be consumed three ways: printed with :mod:`repro.bench.tables`,
asserted on in integration tests, and timed by the pytest benchmarks in
``benchmarks/``.

===========  ==================================================================
Experiment   Runner
===========  ==================================================================
Table 1      :func:`table1` — corpus size / LOC / function counts
Figure 4     :func:`figure4` — full-pipeline validation rate per benchmark
Figure 5     :func:`figure5` — per-optimization transformed/validated counts
Figure 6     :func:`figure6` — GVN rewrite-rule ablation
Figure 7     :func:`figure7` — LICM rewrite-rule ablation
Figure 8     :func:`figure8` — SCCP rewrite-rule ablation
§5.1 timing  :func:`validation_timing` — validation wall-clock per benchmark
§5.4         :func:`matching_ablation` — simple vs partition vs combined matcher
(extension)  :func:`engine_comparison` — worklist vs full-scan normalization
(extension)  :func:`engine_sweep_comparison` — worklist vs full-scan stepwise records
(extension)  :func:`stepwise_comparison` — whole vs stepwise vs bisect strategies
(extension)  :func:`executor_comparison` — lazy driver vs executor (in-process and pooled)
(extension)  :func:`chain_comparison` — chain-shared graphs vs per-pair stepwise
(extension)  :func:`cache_persistence` — cold vs warm persistent-cache sweeps
===========  ==================================================================
"""

from __future__ import annotations

import time
from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.manager import AnalysisManager
from ..ir.cloning import clone_function
from ..ir.module import Module
from ..ir.printer import print_module
from ..transforms.pass_manager import PAPER_PIPELINE, PassManager, get_pass
from ..validator.config import (
    DEFAULT_CONFIG,
    GVN_ABLATION_STEPS,
    LICM_ABLATION_STEPS,
    SCCP_ABLATION_STEPS,
    ValidatorConfig,
)
from ..validator.cache import ValidationCache
from ..validator.driver import (
    STRATEGIES,
    llvm_md,
    validate_function_pipeline,
    validate_module_batch,
)
from ..validator.validate import validate
from .corpus import PAPER_BENCHMARKS, BENCHMARKS_BY_NAME, BenchmarkSpec, build_corpus

#: Default benchmark subset = all twelve of the paper's Table 1.
ALL_BENCHMARKS: Tuple[str, ...] = tuple(spec.name for spec in PAPER_BENCHMARKS)


def _selected_specs(benchmarks: Optional[Sequence[str]]) -> List[BenchmarkSpec]:
    names = list(benchmarks) if benchmarks is not None else list(ALL_BENCHMARKS)
    return [BENCHMARKS_BY_NAME[name] for name in names]


# ---------------------------------------------------------------------------
# Table 1 — test suite information
# ---------------------------------------------------------------------------

def table1(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None
           ) -> List[Dict[str, object]]:
    """Corpus statistics: size of the assembly, lines, number of functions.

    The ``paper_*`` columns carry the numbers from the paper's Table 1 for
    a side-by-side comparison of the *shape* (gcc largest, mcf/lbm
    smallest); the synthetic corpora are roughly 100× smaller.
    """
    rows = []
    for spec in _selected_specs(benchmarks):
        module = build_corpus(spec, scale)
        text = print_module(module)
        rows.append({
            "benchmark": spec.name,
            "size_bytes": len(text.encode("utf-8")),
            "loc": text.count("\n"),
            "functions": len(module.defined_functions()),
            "instructions": module.instruction_count(),
            "paper_size": spec.paper_size,
            "paper_loc": spec.paper_loc,
            "paper_functions": spec.paper_functions,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 4 — validation of the whole pipeline
# ---------------------------------------------------------------------------

def _pipeline_reports(scale: float, benchmarks: Optional[Sequence[str]],
                      passes: Sequence[str] = PAPER_PIPELINE,
                      config: Optional[ValidatorConfig] = None):
    """Run ``llvm_md`` over each selected corpus; yields ``(spec, report)``.

    The shared substrate of :func:`figure4` and :func:`validation_timing`,
    so the two experiments cannot diverge in how they build and validate
    the corpora.
    """
    config = config or DEFAULT_CONFIG
    for spec in _selected_specs(benchmarks):
        module = build_corpus(spec, scale)
        _, report = llvm_md(module, passes, config, label=spec.name)
        yield spec, report


def figure4(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
            passes: Sequence[str] = PAPER_PIPELINE,
            config: Optional[ValidatorConfig] = None) -> List[Dict[str, object]]:
    """Per-benchmark validation rate of the full optimization pipeline.

    One row per benchmark plus a final ``overall`` row, matching Figure 4
    (the paper reports ≈80% overall, SQLite close to 90%, gcc and
    perlbench lower).
    """
    rows: List[Dict[str, object]] = []
    total_transformed = total_validated = total_functions = 0
    total_time = 0.0
    for _, report in _pipeline_reports(scale, benchmarks, passes, config):
        row = report.to_table_row()
        rows.append(row)
        total_functions += report.total_functions
        total_transformed += report.transformed_functions
        total_validated += report.validated_functions
        total_time += report.total_time
    overall_rate = 100.0 * total_validated / total_transformed if total_transformed else 100.0
    rows.append({
        "benchmark": "overall",
        "functions": total_functions,
        "transformed": total_transformed,
        "validated": total_validated,
        "rate": round(overall_rate, 1),
        "time_s": round(total_time, 2),
    })
    return rows


# ---------------------------------------------------------------------------
# Figure 5 — individual optimizations
# ---------------------------------------------------------------------------

def _single_pass_pipeline(pass_name: str) -> Tuple[str, ...]:
    """The pass list used when evaluating one optimization in isolation.

    Loop unswitching needs an invariant condition available outside the
    loop, which in our corpora (as in C code compiled at -O0) only happens
    after LICM has hoisted it, so its "single optimization" run is
    LICM+unswitch with the transformed flag keyed on unswitch.
    """
    if pass_name == "loop-unswitch":
        return ("licm", "loop-unswitch")
    return (pass_name,)


def figure5(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
            passes: Sequence[str] = PAPER_PIPELINE,
            config: Optional[ValidatorConfig] = None) -> Dict[str, List[Dict[str, object]]]:
    """Transformed / validated function counts for each optimization alone.

    Returns ``{pass name: [row per benchmark]}`` where each row carries the
    number of functions the optimization changed and how many of those
    validated — the two segments of each bar in the paper's Figure 5.
    """
    config = config or DEFAULT_CONFIG
    results: Dict[str, List[Dict[str, object]]] = {name: [] for name in passes}
    for spec in _selected_specs(benchmarks):
        module = build_corpus(spec, scale)
        functions = module.defined_functions()
        for pass_name in passes:
            transformed = validated = 0
            total_time = 0.0
            pipeline = _single_pass_pipeline(pass_name)
            for function in functions:
                optimized = clone_function(function)
                changed = {name: get_pass(name)(optimized) for name in pipeline}
                if not changed.get(pass_name):
                    continue
                transformed += 1
                result = validate(function, optimized, config)
                total_time += result.elapsed
                if result.is_success:
                    validated += 1
            results[pass_name].append({
                "benchmark": spec.name,
                "transformed": transformed,
                "validated": validated,
                "rate": round(100.0 * validated / transformed, 1) if transformed else 100.0,
                "time_s": round(total_time, 2),
            })
    return results


# ---------------------------------------------------------------------------
# Figures 6–8 — rewrite-rule ablations
# ---------------------------------------------------------------------------

def _rule_ablation(steps, pass_name: str, scale: float,
                   benchmarks: Optional[Sequence[str]],
                   base_config: Optional[ValidatorConfig]) -> Dict[str, Dict[str, float]]:
    """Validation rate of one optimization under increasing rule sets."""
    base_config = base_config or DEFAULT_CONFIG
    pipeline = _single_pass_pipeline(pass_name)
    results: Dict[str, Dict[str, float]] = {}
    for spec in _selected_specs(benchmarks):
        module = build_corpus(spec, scale)
        # Optimize once; validate under each rule configuration.
        pairs = []
        for function in module.defined_functions():
            optimized = clone_function(function)
            changed = {name: get_pass(name)(optimized) for name in pipeline}
            if changed.get(pass_name):
                pairs.append((function, optimized))
        for label, groups in steps:
            config = base_config.with_rules(groups)
            validated = sum(1 for before, after in pairs if validate(before, after, config).is_success)
            rate = 100.0 * validated / len(pairs) if pairs else 100.0
            results.setdefault(label, {})[spec.name] = round(rate, 1)
    return results


def figure6(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
            config: Optional[ValidatorConfig] = None) -> Dict[str, Dict[str, float]]:
    """GVN validation rate as rewrite-rule groups are added (paper Figure 6)."""
    return _rule_ablation(GVN_ABLATION_STEPS, "gvn", scale, benchmarks, config)


def figure7(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
            config: Optional[ValidatorConfig] = None) -> Dict[str, Dict[str, float]]:
    """LICM validation rate with no rules vs all rules (paper Figure 7)."""
    return _rule_ablation(LICM_ABLATION_STEPS, "licm", scale, benchmarks, config)


def figure8(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
            config: Optional[ValidatorConfig] = None) -> Dict[str, Dict[str, float]]:
    """SCCP validation rate under the paper's four rule sets (paper Figure 8)."""
    return _rule_ablation(SCCP_ABLATION_STEPS, "sccp", scale, benchmarks, config)


# ---------------------------------------------------------------------------
# §5.1 timing and §5.4 matcher ablation
# ---------------------------------------------------------------------------

def validation_timing(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
                      config: Optional[ValidatorConfig] = None) -> List[Dict[str, object]]:
    """Validation wall-clock per benchmark for the full pipeline.

    The paper reports 19m19s for GCC, 2m56s for perl and 55s for SQLite on
    2011 hardware; here only the *ordering* (gcc ≫ perlbench ≫ sqlite) is
    expected to reproduce.  Each row also carries the normalization
    engine's work counters (rule invocations, worklist pushes, dispatch
    index hits) so the perf trajectory can be tracked across PRs.
    """
    rows: List[Dict[str, object]] = []
    overall_time = 0.0
    overall_transformed = 0
    overall_engine: Dict[str, int] = {}
    for spec, report in _pipeline_reports(scale, benchmarks, config=config):
        totals = report.engine_totals()
        row: Dict[str, object] = {
            "benchmark": spec.name,
            "time_s": round(report.total_time, 2),
            "transformed": report.transformed_functions,
            "rule_invocations": totals.get("rule_invocations", 0),
            "worklist_pushes": totals.get("worklist_pushes", 0),
            "index_hits": totals.get("index_hits", 0),
        }
        rows.append(row)
        overall_time += report.total_time
        overall_transformed += report.transformed_functions
        for key in ("rule_invocations", "worklist_pushes", "index_hits"):
            overall_engine[key] = overall_engine.get(key, 0) + int(row[key])
    rows.append({
        "benchmark": "overall",
        "time_s": round(overall_time, 2),
        "transformed": overall_transformed,
        **overall_engine,
    })
    return rows


def engine_comparison(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
                      passes: Sequence[str] = PAPER_PIPELINE,
                      config: Optional[ValidatorConfig] = None) -> List[Dict[str, object]]:
    """Worklist engine vs the full-scan baseline on identical inputs.

    Optimizes each benchmark once, then validates every transformed
    function under both normalization engines.  Returns one row per
    benchmark with the verdict-parity flag and the rule-application work
    of both engines — the ISSUE's acceptance evidence that the worklist
    engine produces identical verdicts with strictly less rule work.
    """
    base = config or DEFAULT_CONFIG
    rows: List[Dict[str, object]] = []
    for spec in _selected_specs(benchmarks):
        module = build_corpus(spec, scale)
        pairs = []
        for function in module.defined_functions():
            optimized = clone_function(function)
            manager_changed = PassManager(passes).run_on_function(optimized)
            if any(manager_changed.values()):
                pairs.append((function, optimized))
        totals = {}
        verdicts_agree = True
        for engine in ("fullscan", "worklist"):
            engine_config = base.with_engine(engine)
            invocations = 0
            elapsed = 0.0
            verdicts = []
            for before, after in pairs:
                result = validate(before, after, engine_config)
                invocations += result.stats.get("rule_invocations", 0)
                elapsed += result.elapsed
                verdicts.append(result.is_success)
            totals[engine] = (invocations, elapsed, verdicts)
        fullscan_inv, fullscan_time, fullscan_verdicts = totals["fullscan"]
        worklist_inv, worklist_time, worklist_verdicts = totals["worklist"]
        verdicts_agree = fullscan_verdicts == worklist_verdicts
        rows.append({
            "benchmark": spec.name,
            "pairs": len(pairs),
            "verdicts_agree": verdicts_agree,
            "fullscan_invocations": fullscan_inv,
            "worklist_invocations": worklist_inv,
            "invocation_ratio": round(worklist_inv / fullscan_inv, 3) if fullscan_inv else 1.0,
            "fullscan_time_s": round(fullscan_time, 2),
            "worklist_time_s": round(worklist_time, 2),
        })
    return rows


def engine_sweep_comparison(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
                            passes: Sequence[str] = PAPER_PIPELINE,
                            config: Optional[ValidatorConfig] = None) -> List[Dict[str, object]]:
    """Stepwise sweeps under both normalization engines, record for record.

    Runs the default stepwise ``llvm_md`` sweep (chain graphs on) of every
    corpus once per engine and compares the per-function
    :meth:`~repro.validator.report.FunctionRecord.signature` lists: the
    worklist engine is an execution strategy for the ``fullscan``
    reference, so every verdict, blame and kept prefix must match (the
    CI guard ``stepwise_guard.py``'s engine leg enforces this).  Each
    row also carries both sweep times and rule invocations.
    """
    base = config or DEFAULT_CONFIG
    rows: List[Dict[str, object]] = []
    for spec in _selected_specs(benchmarks):
        per_engine: Dict[str, Dict[str, object]] = {}
        for engine in ("worklist", "fullscan"):
            module = build_corpus(spec, scale)
            start = time.perf_counter()
            _, report = llvm_md(module, passes, base.with_engine(engine),
                                label=spec.name, strategy="stepwise")
            per_engine[engine] = {
                "time_s": round(time.perf_counter() - start, 3),
                "rule_invocations": report.engine_totals().get("rule_invocations", 0),
                "signatures": [record.signature() for record in report.records],
            }
        worklist, fullscan = per_engine["worklist"], per_engine["fullscan"]
        mismatches = [ours["name"] for ours, reference
                      in zip(worklist["signatures"], fullscan["signatures"])
                      if ours != reference]
        if len(worklist["signatures"]) != len(fullscan["signatures"]):  # pragma: no cover
            mismatches.append("<record-count-mismatch>")
        rows.append({
            "benchmark": spec.name,
            "records": len(worklist["signatures"]),
            "identical": not mismatches,
            "mismatches": mismatches,
            "worklist_rule_invocations": worklist["rule_invocations"],
            "fullscan_rule_invocations": fullscan["rule_invocations"],
            "worklist_time_s": worklist["time_s"],
            "fullscan_time_s": fullscan["time_s"],
        })
    return rows


def stepwise_comparison(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
                        passes: Sequence[str] = PAPER_PIPELINE,
                        config: Optional[ValidatorConfig] = None) -> List[Dict[str, object]]:
    """Whole vs stepwise vs bisect validation strategies, per benchmark.

    For every corpus, runs :func:`~repro.validator.driver.validate_function_pipeline`
    on each function under all three strategies and records:

    * per-strategy verdict counts, wall time and rule invocations;
    * ``superset_ok`` / ``superset_violations`` — stepwise must accept
      every function whole accepts (the strategy-regression guard the CI
      workflow enforces);
    * kept-prefix statistics — how much optimization work stepwise
      salvaged from functions whole validation would have rolled back;
    * the blame histogram bisect produced;
    * the :class:`~repro.analysis.manager.AnalysisManager` counters,
      showing how much per-version analysis recomputation the shared
      cache removed.

    The experiment pins ``chain_graphs=False``: it characterizes the
    *per-pair* strategy implementations (including their analysis-reuse
    pattern, which chain-shared graphs make moot by building every
    version once); :func:`chain_comparison` is the experiment that
    compares the per-pair path against the chain-shared path.
    """
    config = _dc_replace(config or DEFAULT_CONFIG, chain_graphs=False)
    rows: List[Dict[str, object]] = []
    for spec in _selected_specs(benchmarks):
        module = build_corpus(spec, scale)
        functions = module.defined_functions()
        accepted: Dict[str, set] = {}
        per_strategy: Dict[str, Dict[str, object]] = {}
        for strategy in STRATEGIES:
            manager = AnalysisManager()
            validated: set = set()
            partial = prefix_steps = invocations = 0
            elapsed = 0.0
            blame: Dict[str, int] = {}
            transformed = multi_step = 0
            for function in functions:
                _, record = validate_function_pipeline(
                    function, passes, config, strategy=strategy, manager=manager)
                if not record.transformed:
                    continue
                transformed += 1
                if record.changed_steps >= 2:
                    multi_step += 1
                invocations += int(record.result.stats.get("rule_invocations", 0))
                elapsed += record.result.elapsed
                if record.validated:
                    validated.add(record.name)
                elif record.kept_prefix:
                    partial += 1
                    prefix_steps += record.kept_prefix
                if record.blamed_pass is not None:
                    blame[record.blamed_pass] = blame.get(record.blamed_pass, 0) + 1
            accepted[strategy] = validated
            per_strategy[strategy] = {
                "validated": len(validated),
                "transformed": transformed,
                "multi_step": multi_step,
                "partial": partial,
                "prefix_steps": prefix_steps,
                "time_s": round(elapsed, 3),
                "rule_invocations": invocations,
                "analysis": manager.stats(),
                "blame": blame,
            }
        violations = sorted(accepted["whole"] - accepted["stepwise"])
        stepwise_analysis = per_strategy["stepwise"]["analysis"]
        rows.append({
            "benchmark": spec.name,
            # Which functions transform (and by how many steps) is a
            # property of the deterministic pipeline, not the strategy.
            "transformed": per_strategy["stepwise"]["transformed"],
            # Functions changed by >= 2 passes: only these guarantee
            # analysis reuse (interior checkpoints consumed twice).
            "multi_step_functions": per_strategy["stepwise"]["multi_step"],
            "whole_validated": per_strategy["whole"]["validated"],
            "stepwise_validated": per_strategy["stepwise"]["validated"],
            "bisect_validated": per_strategy["bisect"]["validated"],
            "superset_ok": not violations,
            "superset_violations": violations,
            "stepwise_partial": per_strategy["stepwise"]["partial"],
            "stepwise_prefix_steps": per_strategy["stepwise"]["prefix_steps"],
            "whole_time_s": per_strategy["whole"]["time_s"],
            "stepwise_time_s": per_strategy["stepwise"]["time_s"],
            "bisect_time_s": per_strategy["bisect"]["time_s"],
            "whole_invocations": per_strategy["whole"]["rule_invocations"],
            "stepwise_invocations": per_strategy["stepwise"]["rule_invocations"],
            "bisect_invocations": per_strategy["bisect"]["rule_invocations"],
            "analyses_computed": stepwise_analysis["analyses_computed"],
            "analyses_reused": stepwise_analysis["analyses_reused"],
            "blame": per_strategy["bisect"]["blame"],
        })
    return rows


def executor_comparison(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
                        passes: Sequence[str] = PAPER_PIPELINE,
                        config: Optional[ValidatorConfig] = None,
                        concurrency: int = 2,
                        strategy: str = "stepwise",
                        tcp_workers: int = 0) -> List[Dict[str, object]]:
    """The lazy driver vs the executor, in-process and pooled.

    For every corpus, validates the module once per leg — ``"lazy"``
    (serial :func:`~repro.validator.driver.llvm_md` at concurrency 0,
    the reference), ``"batch"`` (``validate_module_batch`` at
    concurrency 0: the executor's scheduling loop in-process) and
    ``"steal"`` (``validate_module_batch`` over ``concurrency`` local
    loopback worker processes) — and compares the per-function *record signatures*
    against the reference — scheduling may only change where and in
    what order queries run, never what they decide, so ``identical``
    must be true on every row (the CI backend-parity guard enforces
    exactly that over all twelve corpora).

    Each row also carries the scheduling telemetry: ``distinct_pairs``
    per executor leg (the deduplicated queries each one actually
    validated), ``steal_pairs_skipped`` (doomed pairs the pool's
    streaming cancellation never ran; zero on an all-accepting corpus)
    and ``steal_bytes_dispatched`` (encoded work-item bytes shipped to
    the workers).

    With ``tcp_workers > 0`` a further leg serves the pool's work to an
    external fleet (``config.steal_listen``), twice per corpus: that many
    worker processes are spawned once (``--reconnect``, so they rejoin
    every per-batch coordinator on the same port), each corpus gets its
    own SQLite ``cache_dir``, and the corpus is validated cold then warm
    — the warm run's planner answers every query from the parent's
    SQLite file, so no item reaches a worker.  Both legs must match the
    reference exactly (``tcp``/``tcp_warm`` entries join the mismatch
    scan), proving the distribution layer is a pure refinement of the
    single-node schedule.
    """
    base = config or DEFAULT_CONFIG
    workers = max(2, concurrency)
    backends = {
        "batch": _dc_replace(base, concurrency=0),
        "steal": _dc_replace(base, concurrency=workers),
    }
    tcp_procs: List[object] = []
    tcp_listen = None
    tcp_store_root = None
    if tcp_workers > 0:
        import os
        import socket
        import tempfile
        from ..validator.scheduler.remote import spawn_workers
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        tcp_listen = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        tcp_store_root = tempfile.mkdtemp(prefix="repro-tcp-parity-")
        tcp_procs = spawn_workers(tcp_listen, max(2, tcp_workers),
                                  reconnect=True, patience=900.0)
    rows: List[Dict[str, object]] = []
    try:
        for spec in _selected_specs(benchmarks):
            module = build_corpus(spec, scale)
            signatures: Dict[str, List[Dict[str, object]]] = {}
            per_backend: Dict[str, Dict[str, object]] = {}
            legs = dict(backends)
            if tcp_workers > 0:
                tcp_config = _dc_replace(
                    base, concurrency=max(2, tcp_workers),
                    steal_listen=tcp_listen,
                    cache_dir=os.path.join(tcp_store_root, spec.name))
                legs["tcp"] = tcp_config
                legs["tcp_warm"] = tcp_config
            start = time.perf_counter()
            _, lazy = llvm_md(module, passes, _dc_replace(base, concurrency=0),
                              label=spec.name, strategy=strategy)
            lazy_time = round(time.perf_counter() - start, 3)
            reference = [record.signature() for record in lazy.records]
            for name, backend_config in legs.items():
                start = time.perf_counter()
                (_, report), = validate_module_batch(
                    [module], passes, backend_config, labels=[spec.name],
                    strategy=strategy)
                elapsed = time.perf_counter() - start
                signatures[name] = [record.signature()
                                    for record in report.records]
                shard = report.shard_stats or {}
                per_backend[name] = {
                    "distinct_pairs": shard.get("distinct_pairs", 0),
                    "pairs_skipped": shard.get("speculative_pairs_skipped", 0),
                    "bytes_dispatched": shard.get("bytes_dispatched", 0),
                    "workers_joined": shard.get("remote_workers_joined", 0),
                    "transformed": report.transformed_functions,
                    "time_s": round(elapsed, 3),
                }
            mismatches = []
            for name in legs:
                mismatches += [f"{signature['name']} ({name})"
                               for signature, other in zip(reference,
                                                           signatures[name])
                               if signature != other]
                if len(reference) != len(signatures[name]):  # pragma: no cover
                    mismatches.append(f"<record-count-mismatch> ({name})")
            row = {
                "benchmark": spec.name,
                "strategy": strategy,
                "transformed": lazy.transformed_functions,
                "identical": not mismatches,
                "mismatches": mismatches,
                "batch_pairs": per_backend["batch"]["distinct_pairs"],
                "steal_pairs": per_backend["steal"]["distinct_pairs"],
                "steal_pairs_skipped": per_backend["steal"]["pairs_skipped"],
                "steal_bytes_dispatched": per_backend["steal"]["bytes_dispatched"],
                "lazy_time_s": lazy_time,
                "batch_time_s": per_backend["batch"]["time_s"],
                "steal_time_s": per_backend["steal"]["time_s"],
            }
            if tcp_workers > 0:
                row.update({
                    "tcp_pairs": per_backend["tcp"]["distinct_pairs"],
                    "tcp_warm_pairs": per_backend["tcp_warm"]["distinct_pairs"],
                    "tcp_workers_joined": per_backend["tcp"]["workers_joined"],
                    "tcp_bytes_dispatched": per_backend["tcp"]["bytes_dispatched"],
                    "tcp_time_s": per_backend["tcp"]["time_s"],
                    "tcp_warm_time_s": per_backend["tcp_warm"]["time_s"],
                })
            rows.append(row)
    finally:
        for proc in tcp_procs:
            try:
                proc.terminate()
            except Exception:
                pass
        for proc in tcp_procs:
            try:
                proc.wait(timeout=10)
            except Exception:
                pass
    return rows


def chain_comparison(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
                     passes: Sequence[str] = PAPER_PIPELINE,
                     config: Optional[ValidatorConfig] = None) -> List[Dict[str, object]]:
    """Chain-shared graphs vs the per-pair baseline on identical inputs.

    For every corpus, runs the full stepwise ``llvm_md`` sweep twice —
    once with ``chain_graphs=False`` (every adjacent checkpoint pair gets
    a fresh two-version graph) and once with ``chain_graphs=True`` (every
    checkpoint chain is hash-consed into ONE graph, normalized once) —
    and records:

    * ``identical`` / ``mismatches`` — the per-function
      :meth:`~repro.validator.report.FunctionRecord.signature` comparison:
      chain graphs are a pure execution strategy, so verdicts, blame,
      kept prefixes and per-pass verdicts must be byte-identical (the CI
      guard ``stepwise_guard.py``'s chain leg enforces this on all
      twelve corpora);
    * the deterministic work counters of both sweeps — nodes built during
      graph construction, total nodes created, rule invocations,
      normalize runs, gate formulas translated and node requests
      (``make`` calls, hash-cons hits included) during construction —
      plus wall time;
    * the chain telemetry (chains built, versions hash-consed, the
      estimated per-pair construction baseline, fallbacks).

    No cache is involved, so the counters measure exactly the work each
    mode performs.
    """
    base = config or DEFAULT_CONFIG
    counter_keys = ("nodes_built", "nodes_created", "rule_invocations",
                    "normalize_runs", "gate_translations", "make_calls")
    rows: List[Dict[str, object]] = []
    for spec in _selected_specs(benchmarks):
        per_mode: Dict[str, Dict[str, object]] = {}
        signatures: Dict[str, List[Dict[str, object]]] = {}
        for mode in ("per_pair", "chain"):
            module = build_corpus(spec, scale)
            mode_config = _dc_replace(base, chain_graphs=(mode == "chain"))
            start = time.perf_counter()
            _, report = llvm_md(module, passes, mode_config, label=spec.name,
                                strategy="stepwise")
            elapsed = time.perf_counter() - start
            totals = report.engine_totals()
            per_mode[mode] = {key: totals.get(key, 0) for key in counter_keys}
            per_mode[mode]["time_s"] = round(elapsed, 3)
            per_mode[mode]["transformed"] = report.transformed_functions
            per_mode[mode]["validated"] = report.validated_functions
            per_mode[mode]["chain"] = report.chain_totals()
            signatures[mode] = [record.signature() for record in report.records]
        mismatches = [serial["name"]
                      for serial, chained in zip(signatures["per_pair"],
                                                 signatures["chain"])
                      if serial != chained]
        if len(signatures["per_pair"]) != len(signatures["chain"]):  # pragma: no cover
            mismatches.append("<record-count-mismatch>")
        chain_totals = per_mode["chain"]["chain"]
        row: Dict[str, object] = {
            "benchmark": spec.name,
            "transformed": per_mode["chain"]["transformed"],
            "validated": per_mode["chain"]["validated"],
            "identical": not mismatches,
            "mismatches": mismatches,
            "chains": chain_totals.get("chains", 0),
            "chain_versions": chain_totals.get("chain_versions", 0),
            "chain_fallbacks": chain_totals.get("chain_fallbacks", 0),
            "chain_pair_baseline_nodes": chain_totals.get("chain_pair_baseline_nodes", 0),
            "per_pair_time_s": per_mode["per_pair"]["time_s"],
            "chain_time_s": per_mode["chain"]["time_s"],
        }
        for key in counter_keys:
            off_value = int(per_mode["per_pair"][key])
            on_value = int(per_mode["chain"][key])
            row[f"per_pair_{key}"] = off_value
            row[f"chain_{key}"] = on_value
            row[f"{key}_saved_pct"] = round(100.0 * (1.0 - on_value / off_value), 1) \
                if off_value else 0.0
        rows.append(row)
    return rows


#: The canonical "one-option suffix tweak": the paper pipeline with its
#: last two passes swapped, the revalidation workload the incremental
#: benchmarks and guards measure.
TWEAKED_PIPELINE = PAPER_PIPELINE[:-2] + (PAPER_PIPELINE[-1],
                                          PAPER_PIPELINE[-2])


def incremental_comparison(scale: float = 1.0,
                           benchmarks: Optional[Sequence[str]] = None,
                           passes: Sequence[str] = PAPER_PIPELINE,
                           tweaked: Sequence[str] = TWEAKED_PIPELINE,
                           config: Optional[ValidatorConfig] = None
                           ) -> List[Dict[str, object]]:
    """Incremental revalidation vs a cold re-run after a pipeline tweak.

    For every corpus, measures the cost of revalidating after changing
    ``passes`` into ``tweaked`` two ways on identical inputs:

    * **cold** — a fresh stepwise ``llvm_md`` sweep of the tweaked
      pipeline, no cache, no retained state: the full price every
      edit-revalidate cycle pays without incrementality;
    * **incremental** — one :class:`~repro.validator.watch.Revalidator`
      primed with a ``passes`` run, then asked to revalidate the same
      module under ``tweaked``: the shared pipeline prefix comes from its
      pass-step memo, unchanged pairs are answered by its cache, and only
      the dirty suffix is executed.

    The same revalidator then replays ``passes`` and ``tweaked`` once
    more on fresh copies of the corpus, the way a daemon sees repeated
    requests: those steps come from its pass-step memo, checkpoints
    included, and every run's records *and* printed result module must
    equal a cold run of its pipeline.

    Each row reports both runs' deterministic work counters with
    ``{key}_saved_pct`` reductions, the reuse telemetry
    (``pairs_skipped_unchanged``, ``functions_fully_cached``, and the
    replays' ``replay_pass_steps_run``/``replay_pass_steps_reused``) and the
    ``identical`` / ``mismatches`` comparison — a mismatch names the
    function (or ``<result-module>``) and the run (``tweaked``,
    ``replay-passes``, ``replay-tweaked``) that diverged.
    ``stepwise_guard.py``'s incremental leg enforces identity on all
    twelve corpora.
    """
    base = config or DEFAULT_CONFIG
    counter_keys = ("nodes_built", "nodes_created", "rule_invocations",
                    "normalize_runs")
    rows: List[Dict[str, object]] = []
    for spec in _selected_specs(benchmarks):
        cold = {"passes": llvm_md(build_corpus(spec, scale), passes, base,
                                  label=spec.name, strategy="stepwise")}
        cold_module = build_corpus(spec, scale)
        start = time.perf_counter()
        cold["tweaked"] = llvm_md(cold_module, tweaked, base, label=spec.name,
                                  strategy="stepwise")
        cold_time = time.perf_counter() - start
        cold_report = cold["tweaked"][1]
        cold_totals = cold_report.engine_totals()

        from ..validator.watch import Revalidator
        revalidator = Revalidator(base)
        warm_module = build_corpus(spec, scale)
        revalidator.revalidate(warm_module, passes, label=spec.name)
        start = time.perf_counter()
        warm_result, warm_report = revalidator.revalidate(
            warm_module, tweaked, label=spec.name)
        warm_time = time.perf_counter() - start
        # (run, cold run of the same pipeline, result module, report)
        runs = [("tweaked", "tweaked", warm_result, warm_report)]
        replay_steps = {"pass_steps_run": 0, "pass_steps_reused": 0}
        for name, pipeline in (("passes", passes), ("tweaked", tweaked)):
            result, report = revalidator.revalidate(
                build_corpus(spec, scale), pipeline, label=spec.name)
            runs.append((f"replay-{name}", name, result, report))
            for key in replay_steps:
                replay_steps[key] += (report.shard_stats or {}).get(key, 0)
        revalidator.close()
        warm_totals = warm_report.engine_totals()

        mismatches = []
        for run, pipeline_name, result, report in runs:
            cold_result, cold_run = cold[pipeline_name]
            cold_signatures = [record.signature() for record in cold_run.records]
            signatures = [record.signature() for record in report.records]
            mismatches += [f"{expected['name']}@{run}" for expected, got
                           in zip(cold_signatures, signatures)
                           if expected != got]
            if len(cold_signatures) != len(signatures):  # pragma: no cover
                mismatches.append(f"<record-count>@{run}")
            if print_module(result) != print_module(cold_result):
                mismatches.append(f"<result-module>@{run}")
        shard = warm_report.shard_stats or {}
        row: Dict[str, object] = {
            "benchmark": spec.name,
            "transformed": cold_report.transformed_functions,
            "validated": cold_report.validated_functions,
            "identical": not mismatches,
            "mismatches": mismatches,
            "pairs_skipped_unchanged": shard.get("pairs_skipped_unchanged", 0),
            "functions_fully_cached": shard.get("functions_fully_cached", 0),
            "replay_pass_steps_run": replay_steps["pass_steps_run"],
            "replay_pass_steps_reused": replay_steps["pass_steps_reused"],
            "cold_time_s": round(cold_time, 3),
            "incremental_time_s": round(warm_time, 3),
        }
        for key in counter_keys:
            cold_value = int(cold_totals.get(key, 0))
            warm_value = int(warm_totals.get(key, 0))
            row[f"cold_{key}"] = cold_value
            row[f"incremental_{key}"] = warm_value
            row[f"{key}_saved_pct"] = round(
                100.0 * (1.0 - warm_value / cold_value), 1) \
                if cold_value else 0.0
        rows.append(row)
    return rows


def cache_persistence(scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None,
                      passes: Sequence[str] = PAPER_PIPELINE,
                      config: Optional[ValidatorConfig] = None,
                      cache_dir: Optional[str] = None,
                      strategy: str = "stepwise",
                      runs: Sequence[str] = ("cold", "warm"),
                      ) -> List[Dict[str, object]]:
    """Cold vs warm corpus sweeps through one persistent validation cache.

    Each requested run sweeps *all* selected corpora through a single
    ``validate_module_batch`` call (one shared cache across modules) with
    a fresh :class:`~repro.validator.cache.ValidationCache` rooted at
    ``cache_dir``, then saves it.  ``checks`` counts the equivalence
    checks the run actually performed (deduplicated pool pairs plus
    inline assembly queries); on a warm run everything is answered from
    the proof store, so ``checks`` collapses toward zero — the
    acceptance criterion is a ≥95% reduction, reported per row as
    ``hit_rate``.  ``cache_dir`` is required (callers pass a temp dir or
    CI's artifact directory).  The SQLite store faults entries in
    lazily, so a warm row shows ``store_lazy_loads`` below
    ``disk_loaded`` and ``store_bytes_read`` below the cold row's
    ``store_bytes_written``.
    """
    if cache_dir is None:
        raise ValueError("cache_persistence needs a cache_dir to persist into")
    base = config or DEFAULT_CONFIG
    run_config = _dc_replace(base, cache_dir=None)
    specs = _selected_specs(benchmarks)
    rows: List[Dict[str, object]] = []
    for run in runs:
        modules = [build_corpus(spec, scale) for spec in specs]
        cache = ValidationCache(cache_dir)
        start = time.perf_counter()
        reports = validate_module_batch(
            modules, passes, run_config, labels=[spec.name for spec in specs],
            cache=cache, strategy=strategy)
        elapsed = time.perf_counter() - start
        shard_stats = reports[-1][1].shard_stats or {}
        checks = shard_stats.get("distinct_pairs", 0) + shard_stats.get("inline_validations", 0)
        lookups = cache.hits + cache.misses
        store_counters = cache.stats()
        rows.append({
            "run": run,
            "backend": cache.backend,
            "benchmarks": len(specs),
            "functions": sum(report.total_functions for _, report in reports),
            "transformed": sum(report.transformed_functions for _, report in reports),
            "validated": sum(report.validated_functions for _, report in reports),
            "checks": checks,
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hits / lookups, 4) if lookups else 1.0,
            "disk_loaded": cache.loaded,
            "entries": len(cache),
            "store_lazy_loads": store_counters.get("store_lazy_loads", 0),
            "store_flushes": store_counters.get("store_flushes", 0),
            "store_bytes_read": store_counters.get("store_bytes_read", 0),
            "store_bytes_written": store_counters.get("store_bytes_written", 0),
            "time_s": round(elapsed, 3),
        })
    return rows


def matching_ablation(scale: float = 0.5, benchmarks: Optional[Sequence[str]] = None,
                      passes: Sequence[str] = PAPER_PIPELINE) -> Dict[str, Dict[str, float]]:
    """Compare the cycle-matching strategies of §5.4.

    Returns ``{matcher: {benchmark: validation rate}}`` for the simple
    unification matcher, the Hopcroft-style partition matcher and the
    combined strategy (the paper found the combination marginally best).
    """
    results: Dict[str, Dict[str, float]] = {}
    for matcher in ("simple", "partition", "combined"):
        config = ValidatorConfig(matcher=matcher)
        for row in figure4(scale, benchmarks, passes=passes, config=config):
            if row["benchmark"] == "overall":
                continue
            results.setdefault(matcher, {})[str(row["benchmark"])] = float(row["rate"])
    return results


__all__ = [
    "ALL_BENCHMARKS",
    "table1",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "validation_timing",
    "engine_comparison",
    "stepwise_comparison",
    "executor_comparison",
    "chain_comparison",
    "cache_persistence",
    "matching_ablation",
]
