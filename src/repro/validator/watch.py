"""Incremental revalidation: the watch-mode driver.

The dominant real workload for a translation validator is not a cold
corpus sweep but a *re*-validation after a small change — a pipeline
suffix tweak, a source edit — where almost everything is unchanged.  The
:class:`Revalidator` here is the long-lived driver for that workload: it
holds one :class:`~repro.validator.scheduler.executors.Executor`, one
:class:`~repro.validator.cache.ValidationCache`, one
:class:`~repro.analysis.manager.AnalysisManager`, one
:class:`~repro.transforms.pass_manager.PassStepMemo` and, per function, the
last run's checkpoint fingerprints, adjacent-pair cache keys and the
*pristine* (constructed, never normalized) chain-shared value graph.  A
:meth:`Revalidator.revalidate` call is the batch driver's single path —
:func:`~repro.validator.scheduler.plan.build_plan` →
:meth:`Executor.execute <repro.validator.scheduler.executors.Executor.execute>`
(only when ``config.concurrency > 1``) →
:func:`~repro.validator.scheduler.settle.settle_plan` — with the previous
run diffed in, so it costs only what changed:

* **incremental planning** — the optimizer itself runs through the
  revalidator's pass-step memo, keyed by (module-context digest, input
  fingerprint, pass): a warm repeat runs no pass at all, and an edited
  pipeline reruns only the steps whose input content is new — the
  shared prefix and any suffix that converges back are read from the
  memo, checkpoints and fingerprints included.  Memo-held checkpoints
  are shared across requests, so settlement clones a kept one into the
  result module instead of adopting it;
* **dirty-suffix planning** — the new checkpoint chain is fingerprinted
  through the shared
  :data:`~repro.analysis.manager.CHECKPOINT_FINGERPRINTS` table and
  diffed against the previous run
  (:func:`~repro.validator.scheduler.plan.diff_plan`); pairs with both
  endpoints unchanged are already in the cache, so the plan never
  schedules them and settlement answers them as hits (counted as
  ``pairs_skipped_unchanged``), never re-validated;
* **subgraph-diff reuse** (in-process, ``concurrency <= 1``) — on the
  first miss of a dirty pair, settlement asks the function's lazy
  delta: only the dirtied versions are symbolically evaluated, into the
  *retained* chain graph
  (:func:`~repro.vgraph.builder.extend_chain_graph`), where hash-consing
  re-reads every sub-term they share with the unchanged population
  (counted as ``subgraph_nodes_reused``); a root-restricted clone of the
  graph is then normalized against the dirty pairs' goals only
  (:func:`~repro.validator.validate.validate_chain_delta`) and their
  verdicts read off.  With a worker pool the executor runs the full
  plan (chain and pair items, then the settle round) exactly like
  :func:`~repro.validator.driver.validate_module_batch`;
* **cold-identical records** — accepts read off the delta are exact and
  are charged, cached and ledgered like any inline validation; every
  read-off *rejection* is re-checked with an isolated per-pair
  :func:`~repro.validator.validate.validate`, and the whole-query
  fallback is always answered per-pair/cache — so incremental records
  are :meth:`~repro.validator.report.FunctionRecord.signature`-identical
  to cold records (``benchmarks/stepwise_guard.py``'s incremental leg
  enforces it on every corpus).

Long-lived callers (the validation daemon,
:func:`~repro.bench.experiments.incremental_comparison`) build a
:class:`Revalidator` directly; ``python -m repro.validator.watch`` wraps
one in a polling CLI loop.
"""

from __future__ import annotations

import sys
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..analysis.manager import AnalysisManager
from ..errors import ReproError
from ..ir.module import Function, Module
from ..transforms.pass_manager import PAPER_PIPELINE, PassStepMemo
from ..vgraph.builder import FunctionSummary, extend_chain_graph
from ..vgraph.graph import ValueGraph
from .cache import CacheKey, ValidationCache
from .config import DEFAULT_CONFIG, ValidatorConfig
from .report import FunctionRecord, ValidationReport
from .scheduler import (
    ExecutionOutcome,
    FunctionPlan,
    PipelineDiff,
    RequestBudget,
    build_plan,
    Executor,
    chain_amortizes,
    diff_plan,
    settle_plan,
    shard_stats,
)
from .validate import ValidationResult, validate_chain_delta


class _ChainState:
    """One function's retained incremental state between revalidations."""

    __slots__ = ("fingerprints", "pair_keys", "pristine", "summaries")

    def __init__(self, fingerprints: List[str], pair_keys: List[CacheKey],
                 pristine: Optional[ValueGraph],
                 summaries: Dict[str, FunctionSummary]) -> None:
        #: Content fingerprints of the previous run's version chain.
        self.fingerprints = fingerprints
        #: The previous run's adjacent-pair cache keys (adoption source).
        self.pair_keys = pair_keys
        #: The retained chain graph — constructed, *never* normalized
        #: (normalization always runs on a root-restricted clone), so it
        #: stays merge-free and extensible.  ``None`` when the previous
        #: run never amortized a chain build.
        self.pristine = pristine
        #: Fingerprint -> roots of every version the pristine graph holds.
        self.summaries = summaries


class _ChainDelta:
    """One function's lazy retained-graph delta within one revalidation.

    :func:`~repro.validator.scheduler.settle.settle_plan` asks
    :meth:`verdict` on a cache miss; the first ask on a dirty pair
    extends the retained graph with the new versions and reads every
    still-uncached dirty pair's verdict off it at once.  :meth:`retained`
    then gives the state to keep for the next revalidation.
    """

    def __init__(self, plan: FunctionPlan, diff: PipelineDiff,
                 previous: Optional[_ChainState]) -> None:
        self.plan = plan
        self.diff = diff
        self.previous = previous
        self.positions = {(id(before), id(after)): index
                          for index, (before, after)
                          in enumerate(zip(plan.versions, plan.versions[1:]))}
        self.dirty = set(diff.dirty_pairs)
        self.attempted = False
        #: Dirty-pair verdicts read off the extended graph (``None`` until
        #: attempted, or when no delta was worth building / it failed).
        self.verdicts: Optional[Dict[int, ValidationResult]] = None
        self.graph: Optional[ValueGraph] = None
        self.summaries: List[FunctionSummary] = []
        #: Retained nodes the extension re-read instead of rebuilding.
        self.reused = 0
        #: The build or normalization failed: validate per pair and drop
        #: the retained graph (the next run builds cold).
        self.fallback = False

    def verdict(self, before: Function, after: Function,
                cache: ValidationCache, config: ValidatorConfig,
                manager: AnalysisManager) -> Optional[ValidationResult]:
        """An exact accept for a dirty adjacent pair, else ``None``."""
        position = self.positions.get((id(before), id(after)))
        if position not in self.dirty:
            return None
        if not self.attempted:
            self.attempted = True
            self._extend(cache, config, manager)
        result = self.verdicts.get(position) if self.verdicts else None
        # Delta rejections are never authoritative (the dirty goal union is
        # neither the full-chain nor the isolated-pair scope): settlement
        # re-checks them in isolation, always.
        return result if result is not None and result.is_success else None

    def _extend(self, cache: ValidationCache, config: ValidatorConfig,
                manager: AnalysisManager) -> None:
        plan, previous = self.plan, self.previous
        needed = [index for index in self.diff.dirty_pairs
                  if cache.peek(plan.pair_keys[index]) is None]
        retained = previous is not None and previous.pristine is not None
        if not needed or not (retained or chain_amortizes(
                len(needed), len(plan.versions))):
            return
        graph = previous.pristine if retained else ValueGraph()
        gates_before, makes_before = graph.gate_translations, graph.make_calls
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, config.recursion_limit))
        try:
            summaries, reused, built = extend_chain_graph(
                graph, previous.summaries if retained else {}, plan.versions,
                manager, plan.fingerprints)
        except Exception:
            summaries = None
        finally:
            sys.setrecursionlimit(old_limit)
        outcome = None
        if summaries is not None:
            outcome = validate_chain_delta(
                graph, summaries, needed, config,
                nodes_built=built, nodes_reused=reused,
                gate_translations=graph.gate_translations - gates_before,
                make_calls=graph.make_calls - makes_before)
        if outcome is None:
            self.fallback = True
            return
        self.verdicts, plan.record.chain_stats = outcome
        self.graph, self.summaries, self.reused = graph, summaries, reused

    def retained(self) -> _ChainState:
        """The state to keep for this function's next revalidation."""
        fingerprints, pair_keys = self.plan.fingerprints, self.diff.pair_keys
        if self.fallback:
            # Broken graph state: keep only the plan (fingerprints and keys
            # still allow adoption), cold-build next time.
            return _ChainState(fingerprints, pair_keys, None, {})
        if self.graph is not None:
            # Prune retired versions' nodes so the retained graph (and the
            # next delta's restricted clone + sharing scan) stays
            # proportional to the live chain.
            roots = [node for summary in self.summaries
                     for node in summary.roots()]
            return _ChainState(fingerprints, pair_keys,
                               self.graph.clone(roots=roots),
                               dict(zip(fingerprints, self.summaries)))
        # Fully cached (or answered per pair without amortizing a build):
        # carry the previous pristine graph forward under the new plan —
        # its summaries stay valid, keyed by fingerprint.
        previous = self.previous
        return _ChainState(fingerprints, pair_keys,
                           previous.pristine if previous is not None else None,
                           dict(previous.summaries) if previous is not None else {})

    def ledger(self, cache: ValidationCache, fresh: Set[CacheKey],
               consumed: Set[CacheKey]) -> Tuple[int, bool]:
        """Replay settlement's hit/miss ledger over this function's walk.

        The stepwise walk consumed the adjacent pairs up to the first
        non-accept (a rejection, or a denial the cache never saw), then
        the whole-query fallback of a multi-step chain.  A consumed query
        was a hit unless it was denied or this call validated it for its
        first consumer (``consumed`` carries the earlier functions' keys).
        Returns ``(unchanged pairs adopted from the cache, every query a
        hit)``.
        """
        plan = self.plan
        queries: List[Tuple[Optional[int], CacheKey]] = []
        for position, key in enumerate(plan.pair_keys):
            queries.append((position, key))
            verdict = cache.peek(key)
            if verdict is None or not verdict.is_success:
                if len(plan.pair_keys) > 1:
                    queries.append((None, plan.whole_key))
                break
        adopted = (set(self.diff.unchanged_pairs)
                   if self.previous is not None else set())
        skipped, all_hits = 0, True
        for position, key in queries:
            hit = cache.peek(key) is not None and (
                key not in fresh or key in consumed)
            consumed.add(key)
            all_hits = all_hits and hit
            skipped += hit and position in adopted
        return skipped, all_hits


class Revalidator:
    """A long-lived incremental validation driver (one per config/service).

    Owns the warm state cold runs lack: the executor, the (optionally
    persistent) proof cache, the analysis manager, the pass-step memo
    and the per-function :class:`_ChainState`.  A revalidation is the
    batch driver's plan → execute → settle with the previous run's chain
    diffed in: with ``config.concurrency > 1`` the executor's pool runs
    the full plan (chain and pair items, settle round) like
    :func:`~repro.validator.driver.validate_module_batch` — retained
    graphs cannot cross process boundaries, but dirty-suffix skipping
    still applies — while at ``concurrency <= 1`` nothing runs ahead of
    settlement and the walk gets the full subgraph-diff reuse.
    """

    def __init__(self, config: Optional[ValidatorConfig] = None,
                 cache: Optional[ValidationCache] = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.cache = cache if cache is not None else ValidationCache(
            self.config.cache_dir, max_bytes=self.config.cache_max_bytes,
            fault_plan=self.config.fault_plan)
        self.manager = AnalysisManager(
            max_entries=self.config.analysis_cache_size or None)
        #: Pipeline steps by input content, kept across revalidations
        #: under the same LRU bound as the analysis manager.
        self.pass_memo = PassStepMemo(
            max_entries=self.config.analysis_cache_size or None)
        self.executor = Executor(self.config.concurrency)
        self._states: Dict[Tuple[str, str], _ChainState] = {}
        #: Completed :meth:`revalidate` calls.
        self.runs = 0

    def close(self) -> None:
        """Release the executor's pool and flush the persistent cache."""
        self.executor.close()
        self.cache.save_if_dirty()

    def revalidate(self, module: Module,
                   passes: Sequence[str] = PAPER_PIPELINE,
                   label: str = "",
                   function_names: Optional[Iterable[str]] = None,
                   cache: Optional[ValidationCache] = None,
                   budget: Optional[RequestBudget] = None,
                   on_record: Optional[Callable[[FunctionRecord], None]] = None,
                   ) -> Tuple[Module, ValidationReport]:
        """Optimize and validate ``module``, reusing the previous run.

        Same contract as serial stepwise
        :func:`~repro.validator.driver.llvm_md` — a fresh result module
        sharing no mutable structure with the input, per-function
        records with verdicts/blame/kept prefixes — plus the incremental
        telemetry in ``report.shard_stats``.  An explicit ``cache``
        overrides the revalidator's own for this call (keys are
        content-addressed, so mixing caches never changes verdicts).
        ``module`` is read, never written, and must stay that way:
        memoized checkpoints keep referencing its globals and callees.

        ``budget`` bounds this call's *fresh* work (see
        :mod:`~repro.validator.scheduler.budget`): cache hits and
        adopted unchanged pairs stay free, and once the budget is
        exhausted remaining queries settle as synthetic uncached
        ``"budget-exhausted"`` denials — records keep their validated
        ``kept_prefix`` instead of the call failing.  ``on_record`` is
        invoked with each :class:`~repro.validator.report.FunctionRecord`
        as it settles, letting a streaming host (the validation service)
        emit verdicts before the run completes.
        """
        label = label or module.name
        cache = cache if cache is not None else self.cache
        config, manager = self.config, self.manager
        plan = build_plan([module], passes, config, cache, labels=[label],
                          strategy="stepwise",
                          function_names=(None if function_names is None
                                          else [list(function_names)]),
                          memo=self.pass_memo)
        deltas: Dict[str, _ChainDelta] = {}
        for function_plan in plan.function_plans():
            previous = self._states.get((label, function_plan.function.name))
            diff = diff_plan(previous.fingerprints if previous is not None else [],
                             function_plan.fingerprints, config, cache=cache,
                             old_pair_keys=(previous.pair_keys
                                            if previous is not None else None))
            deltas[function_plan.function.name] = _ChainDelta(
                function_plan, diff, previous)

        if config.concurrency <= 1:
            # Nothing runs ahead of settlement, so the retained-graph delta
            # stays lazy: built only when the walk first misses a dirty pair.
            execution = ExecutionOutcome()
        else:
            execution = self.executor.execute(plan, cache, budget=budget)

        def delta(function_plan: FunctionPlan, before: Function,
                  after: Function) -> Optional[ValidationResult]:
            return deltas[function_plan.function.name].verdict(
                before, after, cache, config, manager)

        def settled(record: FunctionRecord) -> None:
            if record.transformed:
                record.analysis_stats = manager.stats()
            if on_record is not None:
                on_record(record)

        [(result_module, report)], inline_validations = settle_plan(
            plan, cache, execution, manager, budget=budget, delta=delta,
            on_record=settled)

        totals = dict.fromkeys(("pairs_skipped_unchanged",
                                "subgraph_nodes_reused", "chain_extensions",
                                "chain_fallbacks", "functions_fully_cached"), 0)
        consumed: Set[CacheKey] = set()
        for record in report.records:
            chain = deltas.get(record.name)
            if chain is None:
                # Untransformed: nothing to validate, nothing worth retaining.
                self._states.pop((label, record.name), None)
                continue
            self._states[(label, record.name)] = chain.retained()
            skipped, all_hits = chain.ledger(cache, execution.fresh, consumed)
            if chain.graph is not None:
                record.chain_stats["chain_pairs_skipped"] = skipped
            totals["pairs_skipped_unchanged"] += skipped
            totals["subgraph_nodes_reused"] += chain.reused
            totals["chain_extensions"] += chain.graph is not None
            totals["chain_fallbacks"] += chain.fallback
            totals["functions_fully_cached"] += all_hits

        cache.save_if_dirty()
        report.cache_stats = cache.stats()
        report.analysis_stats = manager.stats()
        self.runs += 1
        report.shard_stats = {
            **shard_stats(plan, execution, self.executor, inline_validations,
                          cache, budget),
            "incremental": 1,
            "revalidations": self.runs,
            **totals,
        }
        return result_module, report


def _load_module(source: str, scale: float) -> Module:
    """Resolve a watch source: ``corpus:NAME`` or a path to an ``.ll`` file."""
    if source.startswith("corpus:"):
        from ..bench.corpus import BENCHMARKS_BY_NAME, build_corpus
        name = source[len("corpus:"):]
        if name not in BENCHMARKS_BY_NAME:
            raise SystemExit(
                f"unknown corpus {name!r} (known: "
                f"{', '.join(sorted(BENCHMARKS_BY_NAME))})")
        return build_corpus(BENCHMARKS_BY_NAME[name], scale)
    from ..ir import parse_module
    from pathlib import Path
    path = Path(source)
    return parse_module(path.read_text(), name=path.stem)


def _source_stamp(path) -> Optional[Tuple[int, int]]:
    """``(st_mtime_ns, st_size)`` of ``path``, or ``None`` when unreadable.

    Nanosecond mtime *and* size: a bare ``st_mtime`` equality check
    misses same-second rewrites on coarse-timestamp filesystems, and a
    deleted file must read as "no stamp", not raise out of the watcher.
    """
    try:
        status = path.stat()
    except OSError:
        return None
    return (status.st_mtime_ns, status.st_size)


def watch_source(path, load: Callable[[], Module],
                 revalidate: Callable[[Module], None],
                 interval: float = 2.0,
                 sleep: Callable[[float], None] = time.sleep,
                 max_polls: Optional[int] = None) -> int:
    """Poll ``path``, calling ``revalidate(load())`` on every content change.

    The loop must outlive editor behavior: the file may briefly not
    exist (atomic-replace saves, deletions) and may be half-written when
    a poll lands (parse errors) — both print a warning and keep polling
    instead of crashing the watcher.  A failed load keeps its stamp, so
    the write that completes the file triggers the retry.  ``sleep`` and
    ``max_polls`` exist for tests; returns the number of completed
    revalidations.
    """
    last_stamp = _source_stamp(path)
    missing_warned = last_stamp is None
    if missing_warned:
        print(f"warning: {path} is missing; waiting for it to appear")
    runs = 0
    polls = 0
    while max_polls is None or polls < max_polls:
        sleep(interval)
        polls += 1
        stamp = _source_stamp(path)
        if stamp is None:
            if not missing_warned:
                print(f"warning: {path} disappeared; watching for it to "
                      f"reappear")
                missing_warned = True
            continue
        missing_warned = False
        if stamp == last_stamp:
            continue
        last_stamp = stamp
        try:
            module = load()
        except (OSError, ReproError) as exc:
            print(f"warning: could not load {path} ({exc}); waiting for the "
                  f"next change")
            continue
        revalidate(module)
        runs += 1
    return runs


def _print_run(label: str, report) -> None:
    shard = report.shard_stats or {}
    print(f"[{label}] {report.summary_line()}")
    print(f"[{label}] pairs_skipped_unchanged={shard.get('pairs_skipped_unchanged', 0)} "
          f"subgraph_nodes_reused={shard.get('subgraph_nodes_reused', 0)} "
          f"chain_extensions={shard.get('chain_extensions', 0)} "
          f"fully_cached={shard.get('functions_fully_cached', 0)}")
    if report.cache_stats:
        hits = report.cache_stats.get("hits", 0)
        misses = report.cache_stats.get("misses", 0)
        total = hits + misses
        rate = hits / total if total else 0.0
        print(f"[{label}] cache: {hits}/{total} hits ({rate:.1%})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.validator.watch`` — the watch-mode CLI.

    Revalidates ``SOURCE`` (an ``.ll`` file, re-parsed whenever its mtime
    changes, or ``corpus:NAME``) in a polling loop through one long-lived
    :class:`Revalidator`.  ``--once`` runs a single revalidation (plus an
    in-process ``--then-passes`` re-run, the suffix-tweak demo) and
    exits; ``--min-hit-rate`` / ``--min-skipped`` turn the exit status
    into a warm-cache / incremental-reuse smoke check for CI.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.validator.watch",
        description="Watch-mode incremental revalidation driver.")
    parser.add_argument("source",
                        help="path to an .ll module, or corpus:NAME")
    parser.add_argument("--passes", nargs="+", default=list(PAPER_PIPELINE),
                        help="optimization pipeline (default: paper pipeline)")
    parser.add_argument("--then-passes", nargs="+", default=None,
                        help="revalidate again with this pipeline after the "
                             "first run (demonstrates dirty-suffix reuse)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="corpus scale for corpus: sources")
    parser.add_argument("--once", action="store_true",
                        help="run once (plus --then-passes) and exit")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="polling interval in seconds (file sources)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent proof-cache directory, .sqlite "
                             "file or remote://HOST:PORT")
    parser.add_argument("--min-hit-rate", type=float, default=None,
                        help="exit 1 if the first run's cache hit rate is "
                             "below this fraction")
    parser.add_argument("--min-skipped", type=int, default=None,
                        help="exit 1 if the final run adopted fewer than this "
                             "many unchanged pairs")
    args = parser.parse_args(argv)

    from dataclasses import replace
    config = replace(DEFAULT_CONFIG, cache_dir=args.cache_dir)
    revalidator = Revalidator(config)
    status = 0
    # try/finally so the executor's pool and the persistent cache are
    # released even when a revalidation raises mid-run.
    try:
        module = _load_module(args.source, args.scale)

        _, report = revalidator.revalidate(module, tuple(args.passes))
        _print_run("run 1", report)
        if args.min_hit_rate is not None:
            stats = report.cache_stats or {}
            total = stats.get("hits", 0) + stats.get("misses", 0)
            rate = stats.get("hits", 0) / total if total else 0.0
            if rate < args.min_hit_rate:
                print(f"FAIL: hit rate {rate:.1%} < {args.min_hit_rate:.1%}")
                status = 1
        last_report = report
        if args.then_passes:
            _, last_report = revalidator.revalidate(module,
                                                    tuple(args.then_passes))
            _print_run("run 2", last_report)

        if not args.once and not args.source.startswith("corpus:"):
            from pathlib import Path
            path = Path(args.source)

            def rerun(changed: Module) -> None:
                nonlocal last_report
                _, last_report = revalidator.revalidate(changed,
                                                        tuple(args.passes))
                _print_run(time.strftime("%H:%M:%S"), last_report)

            print(f"watching {path} (every {args.interval:g}s; "
                  f"Ctrl-C to stop)")
            try:
                watch_source(path,
                             lambda: _load_module(args.source, args.scale),
                             rerun, interval=args.interval)
            except KeyboardInterrupt:
                pass

        if args.min_skipped is not None:
            skipped = (last_report.shard_stats or {}).get(
                "pairs_skipped_unchanged", 0)
            if skipped < args.min_skipped:
                print(f"FAIL: pairs_skipped_unchanged {skipped} < "
                      f"{args.min_skipped}")
                status = 1
    finally:
        revalidator.close()
    return status


__all__ = [
    "Revalidator",
    "watch_source",
    "main",
]


if __name__ == "__main__":
    raise SystemExit(main())
