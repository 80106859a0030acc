#!/usr/bin/env python3
"""Steal-transport comparison: pipe vs TCP, plus served-store RPC costs.

Runs the ``steal`` scheduling backend over all twelve paper corpora
twice — once per transport (``pipe``: the in-process fork/pipe pool,
``tcp``: the loopback coordinator with remote worker subprocesses) —
and records the deterministic work counters side by side: validated
queries (``distinct_pairs``), pooled items and wall-clock.  Records are
parity-checked elsewhere (``remote_steal_guard.py``); this artifact
exists to bound the *overhead* of going cross-host:

* the TCP transport must not answer meaningfully more queries than the
  pipe transport (the schedule may differ, the work may not) — the perf
  guard gates ``tcp_queries <= 1.15 x pipe_queries``;
* a warm driver consulting the served proof store through a
  ``remote://HOST:PORT`` ``config.cache_dir`` must amortize its round
  trips: planning issues **at most one get RPC per work batch** (one
  ``validate_module_batch`` call), answered by batched planning-time
  prefetch, never per-key chatter;
* work items must stay small: the encoded bytes both transports shipped
  (``bytes_dispatched``) per pooled item are gated against the committed
  ``benchmarks/perf_baseline.json`` ``dispatch`` entry, so an item that
  drags whole modules again (callee bodies instead of declarations)
  fails.

``benchmarks/perf_guard.py`` gates exactly those from this artifact
(and skips the gate with a note when the artifact is absent).

Run with::

    PYTHONPATH=src python benchmarks/bench_remote_steal.py [--scale 0.2] [--out FILE]
"""

import argparse
import json
import pathlib
import socket
import tempfile
import time
from dataclasses import replace

from repro.bench import format_table
from repro.bench.corpus import PAPER_BENCHMARKS, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import faults
from repro.validator.cache import REMOTE_PREFIX, ValidationCache
from repro.validator.config import DEFAULT_CONFIG
from repro.validator.driver import validate_module_batch
from repro.validator.scheduler.remote import ServedStore, spawn_workers
from repro.validator.scheduler.transport import TcpStealPool

WORKERS = 2

TABLE_COLUMNS = ("benchmark", "transport", "distinct_pairs", "pooled_pairs",
                 "bytes_dispatched", "items_stolen", "workers_joined",
                 "time_s")


def probe_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def run_one(module, config, cache=None):
    faults.reset()
    start = time.perf_counter()
    [(_, report)] = validate_module_batch(
        [module], PAPER_PIPELINE, config=config, cache=cache,
        strategy="stepwise")
    return report.shard_stats or {}, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2,
                        help="corpus scale (default 0.2: the guard scale)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(
                            "benchmarks/artifacts/remote_steal.json"),
                        help="where to write the JSON artifact")
    args = parser.parse_args()

    steal_address = f"127.0.0.1:{probe_port()}"
    worker_procs = spawn_workers(steal_address, WORKERS, reconnect=True,
                                 patience=900.0)
    store_dir = tempfile.TemporaryDirectory(prefix="repro-remote-bench-")
    store_pool = TcpStealPool(
        1, None, listen="127.0.0.1:0",
        store=ServedStore(store_dir.name))
    store_address = f"{store_pool.address[0]}:{store_pool.address[1]}"

    transports = {
        "pipe": replace(DEFAULT_CONFIG, concurrency=WORKERS),
        "tcp": replace(DEFAULT_CONFIG, concurrency=WORKERS,
                       steal_transport="tcp", steal_listen=steal_address),
    }
    store_config = replace(DEFAULT_CONFIG,
                           cache_dir=f"{REMOTE_PREFIX}{store_address}")

    rows = []
    totals = {name: {"distinct_pairs": 0, "pooled_pairs": 0,
                     "bytes_dispatched": 0, "time_s": 0.0}
              for name in transports}
    warm_get_rpcs = warm_batched_gets = warm_batches = warm_revalidated = 0
    try:
        for spec in PAPER_BENCHMARKS:
            module = build_corpus(spec, args.scale)
            for name, config in transports.items():
                shard, elapsed = run_one(module, config)
                totals[name]["distinct_pairs"] += shard.get(
                    "distinct_pairs", 0)
                totals[name]["pooled_pairs"] += shard.get("pooled_pairs", 0)
                totals[name]["bytes_dispatched"] += shard.get(
                    "bytes_dispatched", 0)
                totals[name]["time_s"] += elapsed
                rows.append({
                    "benchmark": spec.name,
                    "transport": name,
                    "distinct_pairs": shard.get("distinct_pairs", 0),
                    "pooled_pairs": shard.get("pooled_pairs", 0),
                    "bytes_dispatched": shard.get("bytes_dispatched", 0),
                    "items_stolen": shard.get("items_stolen", 0),
                    "workers_joined": shard.get("remote_workers_joined", 0),
                    "time_s": round(elapsed, 3),
                })
            # Served-store amortization: cold populates, warm must answer
            # from at most one batched get RPC for the whole batch.
            run_one(module, store_config)
            warm_cache = ValidationCache(f"{REMOTE_PREFIX}{store_address}")
            warm_shard, _ = run_one(module, store_config, warm_cache)
            warm_stats = warm_cache.stats()
            warm_batches += 1
            warm_get_rpcs += warm_stats.get("store_get_rpcs", 0)
            warm_batched_gets += warm_stats.get("store_batched_gets", 0)
            warm_revalidated += warm_shard.get("distinct_pairs", 0)
    finally:
        for proc in worker_procs:
            proc.terminate()
        for proc in worker_procs:
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()
        store_pool.close()
        store_dir.cleanup()

    print(format_table([{k: row[k] for k in TABLE_COLUMNS} for row in rows],
                       title=f"Steal transports: pipe vs tcp "
                             f"(scale {args.scale}, {WORKERS} workers)"))

    pipe_queries = totals["pipe"]["distinct_pairs"]
    tcp_queries = totals["tcp"]["distinct_pairs"]
    shipped = sum(total["bytes_dispatched"] for total in totals.values())
    pooled = sum(total["pooled_pairs"] for total in totals.values())
    summary = {
        "pipe_queries": pipe_queries,
        "tcp_queries": tcp_queries,
        "tcp_overhead_ratio": round(tcp_queries / pipe_queries, 4)
            if pipe_queries else 0.0,
        "pipe_time_s": round(totals["pipe"]["time_s"], 3),
        "tcp_time_s": round(totals["tcp"]["time_s"], 3),
        "pipe_bytes_dispatched": totals["pipe"]["bytes_dispatched"],
        "tcp_bytes_dispatched": totals["tcp"]["bytes_dispatched"],
        "bytes_per_pooled_item": round(shipped / pooled) if pooled else 0,
        "warm_batches": warm_batches,
        "warm_get_rpcs": warm_get_rpcs,
        "warm_batched_gets": warm_batched_gets,
        "warm_revalidated_pairs": warm_revalidated,
    }
    print(f"total queries: tcp {tcp_queries} vs pipe {pipe_queries} "
          f"(x{summary['tcp_overhead_ratio']}); warm served store answered "
          f"{warm_batches} work batches in {warm_get_rpcs} get RPCs "
          f"({warm_batched_gets} batched gets, "
          f"{warm_revalidated} pairs re-validated); "
          f"{summary['bytes_per_pooled_item']} bytes shipped per pooled item")

    payload = {"schema": 1, "scale": args.scale, "workers": WORKERS,
               "rows": rows, "totals": totals, "summary": summary}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
