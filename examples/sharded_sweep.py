#!/usr/bin/env python3
"""Corpus-scale validation: sharded stepwise sweeps with a persistent cache.

This example shows the two scaling layers the driver grew on top of the
paper's per-function validator:

* **sharding** — ``validate_module_batch`` flattens the per-pass adjacent
  checkpoint pairs of *all* functions of *all* modules into one
  deduplicated, priority-ordered work queue and fans it out over a pool
  of ``config.concurrency`` workers — each completion dispatches the
  queue's next item, in the same order an in-process run takes them —
  then reassembles per-function verdicts, blame and kept prefixes
  identical to the serial path;
* **persistence** — with ``config.cache_dir`` set, every proved pair is
  saved to a content-addressed SQLite proof store, flushed incrementally
  (``store_flushes``), so a second sweep (a CI re-run, a nightly job)
  answers from disk instead of re-proving anything, faulting in only
  the rows it actually consults (``store_lazy_loads``);
* **cancellation** — ``config.concurrency`` alone decides whether the
  executor's pool runs (0 or 1 keep its scheduling loop in-process).
  The last section sweeps a *high-rejection* pipeline (one pass
  deliberately miscompiles) in-process and on the pool: either way a
  streamed rejection cancels the later pairs of its function
  (``speculative_pairs_skipped``), and both produce byte-identical
  per-function records.

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
from repro.transforms import BUGGY_PIPELINE
from repro.validator import DEFAULT_CONFIG, validate_module_batch

BENCHMARKS = ("sqlite", "bzip2", "hmmer", "mcf", "lbm")


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
    print(f"  workers            : {shard.get('workers', 0)} "
          f"(0 = in-process)")
    print(f"  distinct pairs     : {shard.get('distinct_pairs', 0)} "
          f"(pooled items {shard.get('pooled_pairs', 0)}, "
          f"chain items {shard.get('chain_items', 0)})")
    print(f"  cancellation       : "
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

    # A high-rejection pipeline in-process and on the pool, each with its
    # own cold in-memory cache so the query counts are comparable.  Chain
    # packing is disabled for both runs so every adjacent pair is its own
    # work item and each doomed pair can be cancelled individually.
    modules = [build_corpus(BENCHMARKS_BY_NAME[name], scale) for name in labels]
    inline_config = replace(DEFAULT_CONFIG, chain_graphs=False)
    inline = sweep(modules, labels, inline_config,
                   "High-rejection sweep, in-process (buggy pipeline)",
                   passes=BUGGY_PIPELINE)
    modules = [build_corpus(BENCHMARKS_BY_NAME[name], scale) for name in labels]
    pooled = sweep(modules, labels,
                   replace(inline_config, concurrency=workers),
                   "High-rejection sweep, worker pool",
                   passes=BUGGY_PIPELINE)

    inline_shard = inline[-1][1].shard_stats or {}
    pooled_shard = pooled[-1][1].shard_stats or {}
    identical = (
        [r.signature() for _, rep in inline for r in rep.records] ==
        [r.signature() for _, rep in pooled for r in rep.records])
    print(f"pool vs in-process: {pooled_shard.get('distinct_pairs', 0)} vs "
          f"{inline_shard.get('distinct_pairs', 0)} queries answered, "
          f"{pooled_shard.get('speculative_pairs_skipped', 0)} vs "
          f"{inline_shard.get('speculative_pairs_skipped', 0)} doomed pairs "
          f"cancelled; records identical: {identical}")


if __name__ == "__main__":
    main()
