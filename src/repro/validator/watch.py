"""Incremental revalidation: the watch-mode driver.

The dominant real workload for a translation validator is not a cold
corpus sweep but a *re*-validation after a small change — a pipeline
suffix tweak, a source edit — where almost everything is unchanged.  The
:class:`Revalidator` here is the long-lived driver for that workload: it
holds one :class:`~repro.validator.scheduler.executors.Executor`, one
:class:`~repro.validator.cache.ValidationCache`, one
:class:`~repro.analysis.manager.AnalysisManager`, one
:class:`~repro.transforms.pass_manager.PassStepMemo` and, per function,
the last run's checkpoint fingerprints.  A :meth:`Revalidator.revalidate`
call is the batch driver's single path at every concurrency —
:func:`~repro.validator.scheduler.plan.build_plan` →
:meth:`Executor.execute <repro.validator.scheduler.executors.Executor.execute>`
→ :func:`~repro.validator.scheduler.settle.settle_plan` — so it costs
only what changed:

* **incremental planning** — the optimizer itself runs through the
  revalidator's pass-step memo, keyed by (module-context digest, input
  fingerprint, pass): a warm repeat runs no pass at all, and an edited
  pipeline reruns only the steps whose input content is new — the
  shared prefix and any suffix that converges back are read from the
  memo, checkpoints and fingerprints included.  Memo-held checkpoints
  are shared across requests, so settlement clones a kept one into the
  result module instead of adopting it;
* **cache-backed dirty suffix** — every adjacent pair is keyed by the
  content of its two checkpoints and the module context, so pairs whose
  endpoints did not change are already in the cache: the plan never
  schedules them, and the executor validates only the dirty pairs (as
  one chain item when enough of them are uncached to amortize a
  chain-shared graph, else pair by pair);
* **reuse telemetry** — each planned chain is diffed against the
  previous run's fingerprints
  (:func:`~repro.validator.scheduler.plan.diff_plan`); unchanged pairs
  the walk consumed as cache hits are counted as
  ``pairs_skipped_unchanged``, and functions whose every query hit as
  ``functions_fully_cached``;
* **cold-identical records** — settlement replays the same strategy
  runners over the same cache as
  :func:`~repro.validator.driver.validate_module_batch`, so incremental
  records are
  :meth:`~repro.validator.report.FunctionRecord.signature`-identical to
  cold records (``benchmarks/stepwise_guard.py``'s incremental leg
  enforces it on every corpus).

Long-lived callers (the validation daemon,
:func:`~repro.bench.experiments.incremental_comparison`) build a
:class:`Revalidator` directly; ``python -m repro.validator.watch`` wraps
one in a polling CLI loop.
"""

from __future__ import annotations

import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..analysis.manager import AnalysisManager
from ..errors import ReproError
from ..ir.module import Module
from ..transforms.pass_manager import PAPER_PIPELINE, PassStepMemo
from .cache import CacheKey, ValidationCache
from .config import DEFAULT_CONFIG, ValidatorConfig
from .report import FunctionRecord, ValidationReport
from .scheduler import (
    FunctionPlan,
    RequestBudget,
    build_plan,
    Executor,
    diff_plan,
    settle_plan,
    shard_stats,
)


def _ledger(plan: FunctionPlan, adopted: Set[int], cache: ValidationCache,
            fresh: Set[CacheKey], consumed: Set[CacheKey]) -> Tuple[int, bool]:
    """Replay settlement's hit/miss ledger over one function's walk.

    The stepwise walk consumed the adjacent pairs up to the first
    non-accept (a rejection, or a denial the cache never saw), then the
    whole-query fallback of a multi-step chain.  A consumed query was a
    hit unless it was denied or this call validated it for its first
    consumer (``consumed`` carries the earlier functions' keys).
    Returns ``(adopted unchanged pairs answered from the cache, every
    query a hit)``.
    """
    queries: List[Tuple[Optional[int], CacheKey]] = []
    for position, key in enumerate(plan.pair_keys):
        queries.append((position, key))
        verdict = cache.peek(key)
        if verdict is None or not verdict.is_success:
            if len(plan.pair_keys) > 1:
                queries.append((None, plan.whole_key))
            break
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
    and each function's last checkpoint fingerprints.  A revalidation
    is the batch driver's plan → execute → settle at every
    ``config.concurrency`` — in-process at 0 or 1, on the executor's
    pool above — exactly like
    :func:`~repro.validator.driver.validate_module_batch`; the previous
    run's fingerprints only feed the reuse telemetry.
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
        #: (label, function name) -> the previous run's version-chain
        #: fingerprints.
        self._fingerprints: Dict[Tuple[str, str], List[str]] = {}
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
        adopted unchanged pairs stay free, the executor admits chain
        items before pairs, and once the budget is exhausted remaining
        queries settle as synthetic uncached ``"budget-exhausted"``
        denials — records keep their validated ``kept_prefix`` instead
        of the call failing.  ``on_record`` is invoked with each
        :class:`~repro.validator.report.FunctionRecord` as it settles,
        once execution has finished, letting a streaming host (the
        validation service) emit verdicts before the whole report is
        assembled.
        """
        label = label or module.name
        cache = cache if cache is not None else self.cache
        manager = self.manager
        plan = build_plan([module], passes, self.config, cache, labels=[label],
                          strategy="stepwise",
                          function_names=(None if function_names is None
                                          else [list(function_names)]),
                          memo=self.pass_memo)
        # The previous run's fingerprints only feed the reuse telemetry:
        # unchanged pairs are answered by the content-keyed cache.
        diffed: Dict[str, Tuple[FunctionPlan, Set[int]]] = {}
        for function_plan in plan.function_plans():
            name = function_plan.function.name
            diff = diff_plan(self._fingerprints.get((label, name), []),
                             function_plan.fingerprints)
            diffed[name] = (function_plan, set(diff.unchanged_pairs))

        execution = self.executor.execute(plan, cache, budget=budget)

        def settled(record: FunctionRecord) -> None:
            if record.transformed:
                record.analysis_stats = manager.stats()
            if on_record is not None:
                on_record(record)

        [(result_module, report)], inline_validations = settle_plan(
            plan, cache, execution, manager, budget=budget, on_record=settled)

        totals = {"pairs_skipped_unchanged": 0, "functions_fully_cached": 0}
        consumed: Set[CacheKey] = set()
        for record in report.records:
            if record.name not in diffed:
                # Untransformed: nothing to validate, nothing to diff.
                self._fingerprints.pop((label, record.name), None)
                continue
            function_plan, adopted = diffed[record.name]
            self._fingerprints[(label, record.name)] = function_plan.fingerprints
            skipped, all_hits = _ledger(function_plan, adopted, cache,
                                        execution.fresh, consumed)
            totals["pairs_skipped_unchanged"] += skipped
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
          f"distinct_pairs={shard.get('distinct_pairs', 0)} "
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
                        help="persistent proof-cache directory or .sqlite "
                             "file")
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
