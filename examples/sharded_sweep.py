#!/usr/bin/env python3
"""Corpus-scale validation: sharded stepwise sweeps with a persistent cache.

This example shows the two scaling layers the driver grew on top of the
paper's per-function validator:

* **sharding** — ``validate_module_batch`` flattens the per-pass adjacent
  checkpoint pairs of *all* functions of *all* modules into one
  deduplicated work queue and fans it out over a work-stealing pool of
  ``config.concurrency`` workers — idle workers steal queued items from
  the most-loaded peer (``items_stolen`` / ``steal_attempts``) — then
  reassembles per-function verdicts, blame and kept prefixes identical
  to the serial path;
* **persistence** — with ``config.cache_dir`` set, every proved pair is
  saved to a content-addressed SQLite proof store, flushed incrementally
  (``store_flushes``), so a second sweep (a CI re-run, a nightly job)
  answers from disk instead of re-proving anything, faulting in only
  the rows it actually consults (``store_lazy_loads``);
* **backend selection** — ``config.executor`` picks the scheduling
  backend: ``"serial"`` or ``"steal"`` (the default ``"auto"`` picks
  steal when ``concurrency > 1``).  The last section sweeps a
  *high-rejection* pipeline (one pass deliberately miscompiles) through
  the eager serial schedule and through the steal backend: a streamed
  rejection cancels the later pairs of its function, so steal answers
  fewer queries for byte-identical per-function records.

Run with::

    python examples/sharded_sweep.py [scale]

``scale`` (default 0.3) multiplies every corpus's function count.
"""

import os
import sys
import tempfile
import time
from dataclasses import replace

from repro.bench import BENCHMARKS_BY_NAME, build_corpus, format_table
from repro.validator import DEFAULT_CONFIG, validate_module_batch

BENCHMARKS = ("sqlite", "bzip2", "hmmer", "mcf", "lbm")

#: A pipeline with an injected miscompilation: plenty of rejections, so
#: the steal backend has doomed pairs to cancel.
BUGGY_PIPELINE = ("adce", "bug-flip-operator", "gvn", "dse")


def sweep(modules, labels, config, title, passes=None):
    start = time.perf_counter()
    kwargs = {"passes": passes} if passes is not None else {}
    results = validate_module_batch(modules, config=config, labels=labels,
                                    strategy="stepwise", **kwargs)
    elapsed = time.perf_counter() - start
    rows = [report.to_table_row() for _, report in results]
    print(format_table(rows, title=title))
    report = results[-1][1]
    shard = report.shard_stats or {}
    cache = report.cache_stats or {}
    print(f"  wall time          : {elapsed:.2f}s")
    print(f"  backend            : {shard.get('executor', '?')} "
          f"({shard.get('workers', 0)} workers)")
    print(f"  distinct pairs     : {shard.get('distinct_pairs', 0)} "
          f"(pooled items {shard.get('pooled_pairs', 0)}, "
          f"chain items {shard.get('chain_items', 0)})")
    if shard.get("executor") == "steal":
        print(f"  stealing           : {shard.get('items_stolen', 0)} items "
              f"stolen in {shard.get('steal_attempts', 0)} attempts, "
              f"{shard.get('speculative_pairs_skipped', 0)} doomed pairs "
              f"cancelled off the queue")
    print(f"  cache              : {cache.get('hits', 0)} hits / "
          f"{cache.get('misses', 0)} misses "
          f"({cache.get('disk_loaded', 0)} loaded from disk)")
    if "store_flushes" in cache:
        print(f"  proof store        : "
              f"{cache.get('store_flushes', 0)} flushes, "
              f"{cache.get('store_lazy_loads', 0)} entries lazily faulted, "
              f"{cache.get('store_bytes_written', 0)} B written / "
              f"{cache.get('store_bytes_read', 0)} B read")
    print()
    return results


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    # At least 2 so the sharded path engages even on single-core boxes.
    workers = min(4, max(2, os.cpu_count() or 2))
    labels = list(BENCHMARKS)

    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        config = replace(DEFAULT_CONFIG, concurrency=workers, cache_dir=cache_dir)
        print(f"sharded stepwise sweep: {len(BENCHMARKS)} corpora at scale {scale}, "
              f"{workers} workers, cache at {cache_dir}\n")

        modules = [build_corpus(BENCHMARKS_BY_NAME[name], scale) for name in labels]
        sweep(modules, labels, config, "Cold sweep (empty cache)")

        # A fresh batch (new modules, new process-level cache object): every
        # pair is answered from the on-disk cache the cold sweep saved.
        modules = [build_corpus(BENCHMARKS_BY_NAME[name], scale) for name in labels]
        results = sweep(modules, labels, config, "Warm sweep (persistent cache)")

        cache = results[-1][1].cache_stats or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        rate = cache.get("hits", 0) / lookups if lookups else 1.0
        loaded = cache.get("disk_loaded", 0)
        lazy = cache.get("store_lazy_loads", 0)
        print(f"warm-run cache-hit rate: {rate:.1%} — "
              f"the second sweep re-proved "
              f"{(results[-1][1].shard_stats or {}).get('distinct_pairs', 0)} pairs "
              f"and faulted {lazy} of {loaded} stored entries lazily\n")

    # Backend selection on a high-rejection pipeline: the eager serial
    # schedule vs work stealing, each with its own cold in-memory cache
    # so the query counts are comparable.  Chain packing is disabled for
    # both runs so every adjacent pair is its own work item: the eager
    # run is the literal "round 1 validates every pair" baseline, and the
    # steal run can cancel each doomed pair individually.
    modules = [build_corpus(BENCHMARKS_BY_NAME[name], scale) for name in labels]
    eager_config = replace(DEFAULT_CONFIG, executor="serial",
                           chain_graphs=False)
    eager = sweep(modules, labels, eager_config,
                  "High-rejection sweep, eager serial backend (buggy pipeline)",
                  passes=BUGGY_PIPELINE)
    modules = [build_corpus(BENCHMARKS_BY_NAME[name], scale) for name in labels]
    steal_config = replace(eager_config, executor="steal",
                           concurrency=workers)
    steal = sweep(modules, labels, steal_config,
                  "High-rejection sweep, work-stealing backend",
                  passes=BUGGY_PIPELINE)

    eager_pairs = (eager[-1][1].shard_stats or {}).get("distinct_pairs", 0)
    steal_pairs = (steal[-1][1].shard_stats or {}).get("distinct_pairs", 0)
    identical = (
        [r.signature() for _, rep in eager for r in rep.records] ==
        [r.signature() for _, rep in steal for r in rep.records])
    print(f"steal vs eager: {steal_pairs} vs {eager_pairs} queries answered "
          f"({eager_pairs - steal_pairs} saved by cancelling doomed pairs); "
          f"records identical: {identical}")


if __name__ == "__main__":
    main()
