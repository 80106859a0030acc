"""Aggregation of validation outcomes into reports.

The paper's metrics (Figure 4, Figure 5) are per-function: a function
counts as *transformed* when at least one pass changed it, and as
*validated* only when the whole pipeline's effect on it could be proved
semantics-preserving ("even though we may validate many optimizations, if
even one optimization fails to validate we count the entire function as
failed", §5.1).  :class:`ValidationReport` collects per-function records
and computes those aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .validate import CONSTRUCTION_COUNTERS, ValidationResult


@dataclass
class FunctionRecord:
    """Validation outcome for one function."""

    name: str
    #: Per-pass "did it change the function" flags (from the pass manager).
    transformed_by: Dict[str, bool] = field(default_factory=dict)
    #: Validation result, or ``None`` when the function was never validated
    #: (e.g. it was not transformed and validation was skipped).
    result: Optional[ValidationResult] = None
    #: Was the result answered from a :class:`~repro.validator.driver.ValidationCache`
    #: instead of a fresh validation?
    from_cache: bool = False
    #: Validation strategy that produced this record (``"whole"``,
    #: ``"stepwise"`` or ``"bisect"``).
    strategy: str = "whole"
    #: Per-pass verdicts, keyed by pass name.  Stepwise: the verdict of
    #: the adjacent checkpoint pair ending at that pass (pipeline order).
    #: Bisect: the verdict of the (original, checkpoint-after-that-pass)
    #: probe the bisection ran (probe order).  Passes never probed do not
    #: appear.
    pass_verdicts: Dict[str, ValidationResult] = field(default_factory=dict)
    #: Pass the strategy blames for the rejection (``None`` when accepted,
    #: or when the whole-pair strategy cannot attribute blame).
    blamed_pass: Optional[str] = None
    #: Number of leading *changed* pipeline steps whose effect was proved
    #: and kept.  Equal to :attr:`changed_steps` when fully validated.
    kept_prefix: int = 0
    #: Stepwise only: a checkpoint pair failed but the composed
    #: (original, final) query validated, so the full result was kept.
    whole_fallback: bool = False
    #: Computed/reused counters of the :class:`~repro.analysis.manager.AnalysisManager`
    #: this record's validations went through (``None`` without a manager).
    analysis_stats: Optional[Dict[str, int]] = None
    #: Chain-shared graph telemetry (``None`` when the record's queries
    #: were answered without building a chain graph — cache hits, the
    #: per-pair path, or non-stepwise strategies): versions hash-consed
    #: into the one graph, nodes built vs. the estimated 2×-per-pair
    #: construction baseline, normalization rounds/rule work of the single
    #: normalize run and how many per-pair normalizations it replaced.
    #: Deliberately *not* part of :meth:`signature` — chain graphs must
    #: never change what validation decides.
    chain_stats: Optional[Dict[str, int]] = None

    def signature(self) -> Dict[str, object]:
        """Everything about this record that validation *decided*.

        The deterministic verdict surface — name, per-pass changed flags,
        acceptance, reason, blame, kept prefix, fallback flag and per-pass
        verdicts — with the incidental measurements (elapsed wall-clock,
        cache provenance, analysis counters) excluded.  The sharded batch
        driver must reproduce the serial driver's signatures exactly; the
        parity tests and the CI shard guard compare these dicts.
        """
        return {
            "name": self.name,
            "strategy": self.strategy,
            "transformed_by": dict(self.transformed_by),
            "validated": self.validated,
            "reason": self.result.reason if self.result is not None else None,
            "blamed_pass": self.blamed_pass,
            "kept_prefix": self.kept_prefix,
            "whole_fallback": self.whole_fallback,
            "pass_verdicts": {name: (verdict.is_success, verdict.reason)
                              for name, verdict in self.pass_verdicts.items()},
        }

    @property
    def transformed(self) -> bool:
        """Was the function changed by at least one pass?"""
        return any(self.transformed_by.values())

    @property
    def changed_steps(self) -> int:
        """Number of pipeline steps that changed the function."""
        return sum(1 for changed in self.transformed_by.values() if changed)

    @property
    def validated(self) -> bool:
        """Did validation succeed (trivially true for untransformed functions)?"""
        if self.result is None:
            return not self.transformed
        return self.result.is_success

    @property
    def partially_kept(self) -> bool:
        """Was a non-empty, non-total validated prefix of the pipeline kept?

        The stepwise and bisect strategies both produce partial keeps: the
        function failed full validation, but the first ``kept_prefix``
        changed steps were proved (pair by pair, or by bisection probes
        against the original) and their partially optimized result kept
        instead of rolling all optimization back.
        """
        return not self.validated and self.kept_prefix > 0


@dataclass
class ValidationReport:
    """Validation outcomes for all functions of one module / benchmark run."""

    #: Label for the run (benchmark name, pipeline description, ...).
    label: str = ""
    records: List[FunctionRecord] = field(default_factory=list)
    #: Hit/miss/size counters of the :class:`ValidationCache` the run used
    #: (``None`` when no cache was involved).  With a shared batch cache
    #: these are the cache's cumulative counters at report-assembly time.
    cache_stats: Optional[Dict[str, int]] = None
    #: Computed/reused counters of the shared
    #: :class:`~repro.analysis.manager.AnalysisManager` (``None`` when the
    #: run did not use one).
    analysis_stats: Optional[Dict[str, int]] = None
    #: Scheduling counters of the batch driver (``None`` for serial
    #: per-function runs): ``distinct_pairs`` (deduplicated
    #: queries this batch validated), ``pooled_pairs`` (work items that ran
    #: in a worker process), ``chain_items`` (packed chain work items),
    #: ``pass_steps_run`` / ``pass_steps_reused`` (pipeline steps that ran
    #: their pass / were answered from the pass-step memo; a cold run
    #: reuses a step only when one function's pipeline revisits the same
    #: content), ``inline_validations`` (assembly-time queries, e.g. bisect probes),
    #: ``workers`` (pool width, ``0`` when everything ran in-process),
    #: ``speculative_pairs_skipped`` (planned pair queries never
    #: validated thanks to streaming cancellation), ``bytes_dispatched``
    #: (encoded work-item bytes shipped to pool workers) and
    #: ``pool_degraded`` (pool failures that degraded the rest of a
    #: batch to the in-process loop).  Incremental
    #: revalidation runs (:mod:`repro.validator.watch`) add
    #: ``pairs_skipped_unchanged`` (adjacent pairs adopted from the
    #: previous run's plan/cache without re-validation) and
    #: ``functions_fully_cached`` (functions whose every query hit).
    shard_stats: Optional[Dict[str, int]] = None

    def add(self, record: FunctionRecord) -> None:
        """Append one function record."""
        self.records.append(record)

    # -- aggregate counts -------------------------------------------------
    @property
    def total_functions(self) -> int:
        """Number of functions processed."""
        return len(self.records)

    @property
    def transformed_functions(self) -> int:
        """Number of functions changed by at least one pass."""
        return sum(1 for record in self.records if record.transformed)

    @property
    def validated_functions(self) -> int:
        """Number of *transformed* functions whose validation succeeded."""
        return sum(1 for record in self.records if record.transformed and record.validated)

    @property
    def rejected_functions(self) -> int:
        """Number of transformed functions the validator rejected (false alarms)."""
        return self.transformed_functions - self.validated_functions

    @property
    def validation_rate(self) -> float:
        """Fraction of transformed functions validated (1.0 when none transformed)."""
        if self.transformed_functions == 0:
            return 1.0
        return self.validated_functions / self.transformed_functions

    @property
    def total_time(self) -> float:
        """Validation wall-clock actually spent, in seconds.

        Cache-answered records carry a *copy* of the original validation's
        elapsed time; counting them would claim the cache saved nothing,
        so only freshly validated records contribute.
        """
        return sum(record.result.elapsed for record in self.records
                   if record.result is not None and not record.from_cache)

    @property
    def cache_hits(self) -> int:
        """Number of function records answered from a validation cache."""
        return sum(1 for record in self.records if record.from_cache)

    def engine_totals(self) -> Dict[str, int]:
        """Normalization-engine counters summed over the work performed.

        Aggregates the per-function :class:`NormalizationStats` the engine
        reported: rule invocations, worklist pushes, dispatch-index hits,
        rewrites, merges and iterations — the "is validator work
        proportional to optimizer work" telemetry.  Cache-answered records
        are excluded (their stats describe work done once elsewhere, not
        work done for this record), so the totals reflect what actually
        ran.
        """
        totals: Dict[str, int] = {}
        for record in self.records:
            if record.result is None or record.from_cache:
                continue
            for key, value in record.result.stats.items():
                totals[key] = totals.get(key, 0) + int(value)
            if record.chain_stats:
                # The chain-shared graph's work is carried on the record
                # (its per-pair results deliberately hold no stats, so
                # one normalization is never counted once per pair);
                # fold it into the same counters the per-pair path
                # reports so the two modes stay comparable.
                for key in ("rule_invocations", "rewrites", "sharing_merges",
                            "cycle_merges"):
                    totals[key] = (totals.get(key, 0)
                                   + record.chain_stats.get(f"chain_{key}", 0))
                totals["nodes_built"] = (totals.get("nodes_built", 0)
                                         + record.chain_stats.get("chain_nodes_built", 0))
                totals["nodes_created"] = (totals.get("nodes_created", 0)
                                           + record.chain_stats.get("chain_nodes_created", 0))
                totals["normalize_runs"] = (totals.get("normalize_runs", 0)
                                            + record.chain_stats.get("chains", 0))
                for key in CONSTRUCTION_COUNTERS:
                    totals[key] = (totals.get(key, 0)
                                   + record.chain_stats.get(f"chain_{key}", 0))
        totals["cache_hits"] = self.cache_hits
        return totals

    def chain_totals(self) -> Dict[str, int]:
        """Chain-shared graph counters summed over the records that used one.

        ``chains`` (graphs built), ``chain_versions`` (checkpoints
        hash-consed into them), ``chain_nodes_built`` vs.
        ``chain_pair_baseline_nodes`` (construction work against the
        estimated per-pair baseline), ``chain_rounds`` /
        ``chain_rule_invocations`` / ``chain_rewrites`` /
        ``chain_sharing_merges`` / ``chain_cycle_merges`` (the single
        normalize run's work),
        ``chain_normalizations_saved`` and ``chain_fallbacks``.
        """
        totals: Dict[str, int] = {}
        for record in self.records:
            if not record.chain_stats:
                continue
            for key, value in record.chain_stats.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    @property
    def partially_kept_functions(self) -> int:
        """Rejected functions that still kept a validated pipeline prefix."""
        return sum(1 for record in self.records if record.partially_kept)

    @property
    def kept_prefix_steps(self) -> int:
        """Changed pipeline steps kept across rejected functions.

        The optimization work the stepwise strategy salvaged: every one of
        these steps would have been rolled back by whole-pair validation.
        """
        return sum(record.kept_prefix for record in self.records
                   if record.partially_kept)

    def blame_histogram(self) -> Dict[str, int]:
        """How often each pass was blamed for a rejection."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            if record.blamed_pass is not None:
                histogram[record.blamed_pass] = histogram.get(record.blamed_pass, 0) + 1
        return histogram

    def failures(self) -> List[FunctionRecord]:
        """Records of transformed functions that failed to validate."""
        return [r for r in self.records if r.transformed and not r.validated]

    def reasons_histogram(self) -> Dict[str, int]:
        """Histogram of failure reasons."""
        histogram: Dict[str, int] = {}
        for record in self.failures():
            reason = record.result.reason if record.result is not None else "not-run"
            histogram[reason] = histogram.get(reason, 0) + 1
        return histogram

    # -- rendering -------------------------------------------------------------
    def summary_line(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.label or 'run'}: {self.validated_functions}/{self.transformed_functions} "
            f"transformed functions validated "
            f"({self.validation_rate * 100.0:.1f}%), "
            f"{self.total_functions} functions total, "
            f"{self.total_time:.2f}s validation time"
        )

    def to_table_row(self) -> Dict[str, object]:
        """Row dict used by the benchmark harness table renderers."""
        return {
            "benchmark": self.label,
            "functions": self.total_functions,
            "transformed": self.transformed_functions,
            "validated": self.validated_functions,
            "rate": round(self.validation_rate * 100.0, 1),
            "time_s": round(self.total_time, 2),
        }


__all__ = ["FunctionRecord", "ValidationReport"]
