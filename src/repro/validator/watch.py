"""Incremental revalidation: the watch-mode driver.

The dominant real workload for a translation validator is not a cold
corpus sweep but a *re*-validation after a small change — a pipeline
suffix tweak, a source edit — where almost everything is unchanged.  The
:class:`Revalidator` here is the long-lived driver for that workload: it
holds one :class:`~repro.validator.scheduler.executors.Executor`, one
:class:`~repro.validator.cache.ValidationCache`, one
:class:`~repro.analysis.manager.AnalysisManager` and, per function, the
last run's checkpoint fingerprints, adjacent-pair cache keys and the
*pristine* (constructed, never normalized) chain-shared value graph.  A
:meth:`Revalidator.revalidate` call then costs only what changed:

* **dirty-suffix planning** — the new checkpoint chain is fingerprinted
  through the shared
  :data:`~repro.analysis.manager.CHECKPOINT_FINGERPRINTS` table and
  diffed against the previous run
  (:func:`~repro.validator.scheduler.plan.diff_plan`); pairs with both
  endpoints unchanged adopt the previous plan's cache keys verbatim and
  settle straight from the cache (counted as
  ``pairs_skipped_unchanged``), never re-keyed, never re-validated;
* **subgraph-diff reuse** — only the dirtied versions are symbolically
  evaluated, into the *retained* chain graph
  (:func:`~repro.vgraph.builder.extend_chain_graph`), where hash-consing
  re-reads every sub-term they share with the unchanged population
  (counted as ``subgraph_nodes_reused``); a root-restricted clone of the
  graph is then normalized against the dirty pairs' goals only
  (:func:`~repro.validator.validate.validate_chain_delta`) and their
  verdicts read off;
* **cold-identical records** — accepts read off the delta are exact,
  every read-off *rejection* is re-checked with an isolated per-pair
  :func:`~repro.validator.validate.validate`, and the whole-query
  fallback is always answered per-pair/cache — so incremental records
  are :meth:`~repro.validator.report.FunctionRecord.signature`-identical
  to cold records (``benchmarks/stepwise_guard.py --incremental-parity``
  enforces it on every corpus).

``llvm_md``/``validate_module_batch`` route through a process-shared
revalidator when ``config.incremental`` is set; ``python -m
repro.validator.watch`` wraps one in a polling CLI loop.
"""

from __future__ import annotations

import sys
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..analysis.manager import AnalysisManager, CHECKPOINT_FINGERPRINTS
from ..errors import ReproError
from ..ir.cloning import clone_function, clone_globals_into
from ..ir.module import Function, Module
from ..transforms.pass_manager import PAPER_PIPELINE, PassManager, checkpoint_chain
from ..vgraph.builder import FunctionSummary, extend_chain_graph
from ..vgraph.graph import ValueGraph
from .cache import CacheKey, ValidationCache
from .config import DEFAULT_CONFIG, ValidatorConfig
from .report import FunctionRecord, ValidationReport
from .scheduler import (
    RequestBudget,
    chain_amortizes,
    create_executor,
    remap_function_refs,
    remap_globals,
    resolved_executor,
    run_stepwise,
)
from .scheduler.plan import PipelineDiff, diff_plan
from .validate import (UNCACHEABLE_REASONS, ValidationResult, validate_bounded,
                       validate_chain_delta)


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


class Revalidator:
    """A long-lived incremental validation driver (one per config/service).

    Owns the warm state cold runs lack: the executor backend, the
    (optionally persistent) proof cache, the analysis manager and the
    per-function :class:`_ChainState`.  Under a pooled executor
    (``"pool"``/``"steal"``) the dirty uncached pairs of a revalidation
    are shipped to the workers as isolated pair items first — retained
    graphs cannot cross process boundaries, but dirty-suffix skipping
    still applies — while the serial backend gets the full
    subgraph-diff reuse.
    """

    def __init__(self, config: Optional[ValidatorConfig] = None,
                 cache: Optional[ValidationCache] = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.cache = cache if cache is not None else ValidationCache(
            self.config.cache_dir, max_bytes=self.config.cache_max_bytes,
            fault_plan=self.config.fault_plan)
        self.manager = AnalysisManager(
            max_entries=self.config.analysis_cache_size or None)
        self.executor = create_executor(self.config)
        self._states: Dict[Tuple[str, str], _ChainState] = {}
        #: Completed :meth:`revalidate` calls.
        self.runs = 0

    def close(self) -> None:
        """Release the executor backend and flush the persistent cache."""
        self.executor.close()
        self.cache.save_if_dirty()

    # -- the driver loop ---------------------------------------------------
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
        report = ValidationReport(label=label)
        result_module = Module(module.name)
        global_map = clone_globals_into(module, result_module)
        selected = set(function_names) if function_names is not None else None

        # Phase 1: optimize + diff every selected function, so pooled
        # backends can see the whole revalidation's dirty demand at once.
        contexts = []
        for function in module.functions.values():
            if function.is_declaration or (
                    selected is not None and function.name not in selected):
                result_module.add_function(
                    clone_function(function, value_map=global_map))
                continue
            contexts.append(self._plan_function(function, passes, label, cache))

        # Phase 2 (pooled backends only): ship the dirty uncached pairs to
        # the workers as isolated pair items and pre-fill the cache.
        prefilled = self._prefill_pooled(contexts, cache, budget)
        prefilled_count = len(prefilled)

        # Phase 3: settle every record through the incremental provider.
        run_totals = {"pairs_skipped_unchanged": 0, "subgraph_nodes_reused": 0,
                      "chain_extensions": 0, "chain_fallbacks": 0,
                      "functions_fully_cached": 0}
        for context in contexts:
            kept, record = self._settle_function(context, cache, prefilled,
                                                 run_totals, budget)
            report.add(record)
            if on_record is not None:
                on_record(record)
            function = context["function"]
            if kept is function:
                result_module.add_function(
                    clone_function(function, value_map=global_map))
            else:
                remap_globals(kept, global_map)
                result_module.add_function(kept)
        remap_function_refs(result_module)

        cache.save_if_dirty()
        report.cache_stats = cache.stats()
        report.analysis_stats = self.manager.stats()
        self.runs += 1
        executor_stats = self.executor.stats()
        report.shard_stats = {
            "executor": self.executor.name,
            "incremental": 1,
            "revalidations": self.runs,
            "pool_prefilled_pairs": prefilled_count,
            "workers_respawned": executor_stats.get("workers_respawned", 0),
            "pairs_quarantined": executor_stats.get("pairs_quarantined", 0),
            "item_retries": executor_stats.get("item_retries", 0),
            **run_totals,
        }
        if budget is not None:
            report.shard_stats.update(budget.stats())
        return result_module, report

    # -- planning ---------------------------------------------------------
    def _plan_function(self, function: Function, passes: Sequence[str],
                       label: str, cache: ValidationCache) -> Dict[str, object]:
        record = FunctionRecord(name=function.name, strategy="stepwise")
        snapshots = PassManager(passes).run_with_snapshots(function)
        record.transformed_by = {snap.pass_name: snap.changed
                                 for snap in snapshots}
        context: Dict[str, object] = {"function": function, "record": record,
                                      "state_key": (label, function.name)}
        if not record.transformed:
            return context
        steps, versions = checkpoint_chain(function, snapshots)
        fingerprints = [CHECKPOINT_FINGERPRINTS.fingerprint(function)]
        fingerprints += [snap.fingerprint() for snap in steps]
        previous = self._states.get((label, function.name))
        diff = diff_plan(previous.fingerprints if previous is not None else [],
                         fingerprints, self.config, cache=cache,
                         old_pair_keys=(previous.pair_keys
                                        if previous is not None else None))
        context.update(steps=steps, versions=versions,
                       fingerprints=fingerprints, previous=previous, diff=diff)
        return context

    def _prefill_pooled(self, contexts: List[Dict[str, object]],
                        cache: ValidationCache,
                        budget: Optional[RequestBudget] = None,
                        ) -> Set[CacheKey]:
        """Run dirty uncached pairs on a pooled backend, filling the cache.

        Returns the keys filled this way; the provider counts their first
        consumption as a miss (the verdict is fresh work of this run, it
        merely ran on a worker).  Serial backends skip this entirely and
        keep the retained-graph delta path.  A ``budget`` is charged here
        at admission (one fresh pair per item); work beyond it is simply
        not shipped, and the provider denies it at settlement.
        """
        if resolved_executor(self.config) not in ("pool", "steal"):
            return set()
        items = []
        keys: List[CacheKey] = []
        queued: Set[CacheKey] = set()
        for context in contexts:
            diff = context.get("diff")
            if diff is None:
                continue
            versions = context["versions"]
            for index in diff.dirty_pairs:
                if budget is not None and budget.exhausted:
                    break
                key = diff.pair_keys[index]
                if key in queued or cache.peek(key) is not None:
                    continue
                queued.add(key)
                keys.append(key)
                items.append(("pair", versions[index], versions[index + 1],
                              self.config))
                if budget is not None:
                    budget.charge()
        if not items:
            return set()
        results = self.executor.run_batch(items, self.config)
        prefilled: Set[CacheKey] = set()
        for key, result in zip(keys, results):
            # Synthetic denials (timeouts, quarantines) must not enter the
            # prefilled set: the provider treats prefilled keys as cached
            # verdicts, and the cache refuses them anyway — the provider's
            # own bounded validation re-answers (or re-denies) the pair.
            if (isinstance(result, ValidationResult)
                    and result.reason not in UNCACHEABLE_REASONS):
                cache.put(key, result)
                prefilled.add(key)
        return prefilled

    # -- settlement -------------------------------------------------------
    def _settle_function(self, context: Dict[str, object],
                         cache: ValidationCache, prefilled: Set[CacheKey],
                         run_totals: Dict[str, int],
                         budget: Optional[RequestBudget] = None,
                         ) -> Tuple[Function, FunctionRecord]:
        function: Function = context["function"]
        record: FunctionRecord = context["record"]
        if "diff" not in context:
            # Untransformed: nothing to validate, nothing worth retaining.
            self._states.pop(context["state_key"], None)
            return function, record
        versions: List[Function] = context["versions"]
        steps = context["steps"]
        fingerprints: List[str] = context["fingerprints"]
        previous: Optional[_ChainState] = context["previous"]
        diff: PipelineDiff = context["diff"]

        provider, finish = self._incremental_provider(
            versions, fingerprints, diff, previous, record, cache, prefilled,
            budget)
        kept = run_stepwise(function, versions, steps, provider, record)
        record.analysis_stats = self.manager.stats()
        self._states[context["state_key"]] = finish(run_totals)
        return kept, record

    def _incremental_provider(self, versions: List[Function],
                              fingerprints: List[str], diff: PipelineDiff,
                              previous: Optional[_ChainState],
                              record: FunctionRecord, cache: ValidationCache,
                              prefilled: Set[CacheKey],
                              budget: Optional[RequestBudget] = None):
        """The pair provider settling one function's record incrementally.

        Returns ``(provider, finish)``; ``finish(run_totals)`` folds the
        per-record telemetry into the run totals and returns the
        :class:`_ChainState` to retain for the next revalidation.
        """
        config = self.config
        manager = self.manager
        positions = {(id(before), id(after)): index
                     for index, (before, after)
                     in enumerate(zip(versions, versions[1:]))}
        whole_pair = (id(versions[0]), id(versions[-1]))
        unchanged = set(diff.unchanged_pairs) if previous is not None else set()
        # Mutable provider state: the lazily produced delta verdicts, the
        # extended graph/summaries, and the telemetry counters.
        state: Dict[str, object] = {}
        counters = {"skipped": 0, "reused": 0, "extended": 0, "fallback": 0,
                    "fresh": 0, "denied": 0}

        def delta() -> Optional[Dict[int, ValidationResult]]:
            """Extend the retained graph and read the dirty verdicts off it."""
            if "delta" in state:
                return state["delta"]  # type: ignore[return-value]
            verdicts: Optional[Dict[int, ValidationResult]] = None
            needed = [index for index in diff.dirty_pairs
                      if cache.peek(diff.pair_keys[index]) is None]
            worthwhile = ((previous is not None and previous.pristine is not None)
                          or chain_amortizes(len(needed), len(versions)))
            if needed and worthwhile:
                graph = (previous.pristine if previous is not None
                         and previous.pristine is not None else ValueGraph())
                old_summaries = (previous.summaries if previous is not None
                                 and previous.pristine is not None else {})
                gates_before, makes_before = graph.gate_translations, graph.make_calls
                old_limit = sys.getrecursionlimit()
                sys.setrecursionlimit(max(old_limit, config.recursion_limit))
                try:
                    summaries, reused, built = extend_chain_graph(
                        graph, old_summaries, versions, manager, fingerprints)
                except Exception:
                    summaries = None
                finally:
                    sys.setrecursionlimit(old_limit)
                if summaries is not None:
                    outcome = validate_chain_delta(
                        graph, summaries, needed, config,
                        nodes_built=built, nodes_reused=reused,
                        gate_translations=graph.gate_translations - gates_before,
                        make_calls=graph.make_calls - makes_before)
                    if outcome is not None:
                        verdicts, chain_stats = outcome
                        counters["extended"] = 1
                        counters["reused"] = reused
                        record.chain_stats = chain_stats
                        state["graph"] = graph
                        state["summaries"] = summaries
                if verdicts is None:
                    # Build or normalization failed: validate per-pair
                    # below and drop the retained state (next run is cold).
                    counters["fallback"] = 1
            state["delta"] = verdicts
            return verdicts

        def provider(before: Function, after: Function
                     ) -> Tuple[ValidationResult, bool]:
            position = positions.get((id(before), id(after)))
            is_whole = position is None and (id(before), id(after)) == whole_pair
            if position is None and not is_whole:
                # Not a chain query (cannot happen under run_stepwise, but
                # the provider contract is total): validate through the
                # cache by content key.
                key = cache.key(before, after, config)
                cached = cache.get(key, before.name)
                if cached is not None:
                    return cached, True
                if budget is not None and budget.exhausted:
                    counters["denied"] += 1
                    return budget.result(before.name), False
                result = validate_bounded(before, after, config,
                                          manager=manager)
                if result.reason in UNCACHEABLE_REASONS:
                    counters["denied"] += 1
                    return result, False
                cache.put(key, result)
                counters["fresh"] += 1
                if budget is not None:
                    budget.charge()
                return result, False
            key = (diff.pair_keys[position] if position is not None
                   else cache.key_for(fingerprints[0], fingerprints[-1], config))
            if key in prefilled:
                # Fresh work of this run that a pooled worker performed:
                # consume it as a miss, exactly as the batch settle layer
                # accounts pre-executed items.
                prefilled.discard(key)
                cache.misses += 1
                counters["fresh"] += 1
                return cache.peek(key), False
            cached = cache.get(key, before.name)
            if cached is not None:
                if position in unchanged:
                    counters["skipped"] += 1
                return cached, True
            if budget is not None and budget.exhausted:
                # Everything past this point is fresh work (delta read-off
                # or isolated validation): deny it uncached — the record
                # salvages its validated prefix, the cache stays clean.
                counters["denied"] += 1
                return budget.result(before.name), False
            result: Optional[ValidationResult] = None
            if position is not None and position in set(diff.dirty_pairs):
                verdicts = delta()
                if verdicts is not None:
                    result = verdicts.get(position)
                if result is not None and not result.is_success:
                    # Delta rejections are never authoritative (the dirty
                    # goal union is neither the full-chain nor the
                    # isolated-pair scope): re-check in isolation, always.
                    result = None
            # Unchanged pairs whose cached verdict was evicted, the whole
            # fallback, and everything the delta could not answer are
            # validated in isolation — the same oracle the cold paths use.
            if result is None:
                result = validate_bounded(before, after, config,
                                          manager=manager)
                if result.reason in UNCACHEABLE_REASONS:
                    counters["denied"] += 1
                    return result, False
            cache.put(key, result)
            counters["fresh"] += 1
            if budget is not None:
                budget.charge()
            return result, False

        def finish(run_totals: Dict[str, int]) -> _ChainState:
            if record.chain_stats is not None and counters["extended"]:
                record.chain_stats["chain_pairs_skipped"] = counters["skipped"]
            run_totals["pairs_skipped_unchanged"] += counters["skipped"]
            run_totals["subgraph_nodes_reused"] += counters["reused"]
            run_totals["chain_extensions"] += counters["extended"]
            run_totals["chain_fallbacks"] += counters["fallback"]
            if ("delta" not in state and not counters["fresh"]
                    and not counters["denied"]):
                run_totals["functions_fully_cached"] += 1
            if counters["fallback"]:
                # Broken graph state: retain only the plan (fingerprints
                # and keys still allow adoption), cold-build next time.
                return _ChainState(fingerprints, diff.pair_keys, None, {})
            if counters["extended"]:
                graph: ValueGraph = state["graph"]  # type: ignore[assignment]
                summaries: List[FunctionSummary] = state["summaries"]  # type: ignore[assignment]
                # Prune retired versions' nodes so the retained graph (and
                # the next delta's restricted clone + sharing scan) stays
                # proportional to the live chain.
                roots = [node for summary in summaries
                         for node in summary.roots()]
                pruned = graph.clone(roots=roots)
                return _ChainState(fingerprints, diff.pair_keys, pruned,
                                   dict(zip(fingerprints, summaries)))
            # Fully cached (or answered per-pair without amortizing a
            # build): carry the previous pristine graph forward — its
            # summaries stay valid, keyed by fingerprint — under the new
            # plan.
            pristine = previous.pristine if previous is not None else None
            summaries_map = dict(previous.summaries) if previous is not None else {}
            return _ChainState(fingerprints, diff.pair_keys, pristine,
                               summaries_map)

        return provider, finish


#: Process-shared revalidators, one per configuration — what gives
#: repeated ``llvm_md(..., config.incremental)`` calls their memory.
_SHARED: Dict[ValidatorConfig, Revalidator] = {}


def shared_revalidator(config: Optional[ValidatorConfig] = None) -> Revalidator:
    """The process-shared :class:`Revalidator` for ``config``."""
    config = config or DEFAULT_CONFIG
    revalidator = _SHARED.get(config)
    if revalidator is None:
        revalidator = _SHARED[config] = Revalidator(config)
    return revalidator


def reset_shared_revalidators() -> None:
    """Drop every process-shared revalidator (tests and long-lived hosts)."""
    for revalidator in _SHARED.values():
        revalidator.close()
    _SHARED.clear()


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
    config = replace(DEFAULT_CONFIG, incremental=True,
                     cache_dir=args.cache_dir)
    revalidator = Revalidator(config)
    status = 0
    # try/finally so the executor backend and the persistent cache are
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
    "shared_revalidator",
    "reset_shared_revalidators",
    "watch_source",
    "main",
]


if __name__ == "__main__":
    raise SystemExit(main())
