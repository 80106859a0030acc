#!/usr/bin/env python3
"""Worker-source comparison: local vs fleet work counters and payload size.

Runs the executor's worker pool over all twelve paper corpora twice —
once per worker source (``local``: ``concurrency`` 2, the pool's own
loopback worker processes; ``fleet``: ``config.steal_listen`` with two
``spawn_workers`` subprocesses joining it) — and records the
deterministic work counters side by side: validated queries
(``distinct_pairs``), pooled items and wall-clock.  Records are
parity-checked elsewhere (``remote_steal_guard.py``); this artifact
exists to bound the *overhead* of serving an external fleet:

* the fleet must not answer meaningfully more queries than the local
  workers (the schedule may differ, the work may not) — the perf guard
  gates ``fleet_queries <= 1.15 x local_queries``;
* work items must stay small: the encoded bytes both legs shipped
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
import time
from dataclasses import replace

from repro.bench import format_table
from repro.bench.corpus import PAPER_BENCHMARKS, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import faults
from repro.validator.config import DEFAULT_CONFIG
from repro.validator.driver import validate_module_batch
from repro.validator.scheduler.remote import spawn_workers

WORKERS = 2

TABLE_COLUMNS = ("benchmark", "workers_from", "distinct_pairs", "pooled_pairs",
                 "bytes_dispatched", "workers_joined", "time_s")


def probe_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def run_one(module, config):
    faults.reset()
    start = time.perf_counter()
    [(_, report)] = validate_module_batch(
        [module], PAPER_PIPELINE, config=config, strategy="stepwise")
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

    legs = {
        "local": replace(DEFAULT_CONFIG, concurrency=WORKERS),
        "fleet": replace(DEFAULT_CONFIG, concurrency=WORKERS,
                         steal_listen=steal_address),
    }

    rows = []
    totals = {name: {"distinct_pairs": 0, "pooled_pairs": 0,
                     "bytes_dispatched": 0, "time_s": 0.0}
              for name in legs}
    try:
        for spec in PAPER_BENCHMARKS:
            module = build_corpus(spec, args.scale)
            for name, config in legs.items():
                shard, elapsed = run_one(module, config)
                totals[name]["distinct_pairs"] += shard.get(
                    "distinct_pairs", 0)
                totals[name]["pooled_pairs"] += shard.get("pooled_pairs", 0)
                totals[name]["bytes_dispatched"] += shard.get(
                    "bytes_dispatched", 0)
                totals[name]["time_s"] += elapsed
                rows.append({
                    "benchmark": spec.name,
                    "workers_from": name,
                    "distinct_pairs": shard.get("distinct_pairs", 0),
                    "pooled_pairs": shard.get("pooled_pairs", 0),
                    "bytes_dispatched": shard.get("bytes_dispatched", 0),
                    "workers_joined": shard.get("remote_workers_joined", 0),
                    "time_s": round(elapsed, 3),
                })
    finally:
        for proc in worker_procs:
            proc.terminate()
        for proc in worker_procs:
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()

    print(format_table([{k: row[k] for k in TABLE_COLUMNS} for row in rows],
                       title=f"Worker pool: local vs fleet workers "
                             f"(scale {args.scale}, {WORKERS} workers)"))

    local_queries = totals["local"]["distinct_pairs"]
    fleet_queries = totals["fleet"]["distinct_pairs"]
    shipped = sum(total["bytes_dispatched"] for total in totals.values())
    pooled = sum(total["pooled_pairs"] for total in totals.values())
    summary = {
        "local_queries": local_queries,
        "fleet_queries": fleet_queries,
        "fleet_overhead_ratio": round(fleet_queries / local_queries, 4)
            if local_queries else 0.0,
        "local_time_s": round(totals["local"]["time_s"], 3),
        "fleet_time_s": round(totals["fleet"]["time_s"], 3),
        "local_bytes_dispatched": totals["local"]["bytes_dispatched"],
        "fleet_bytes_dispatched": totals["fleet"]["bytes_dispatched"],
        "bytes_per_pooled_item": round(shipped / pooled) if pooled else 0,
    }
    print(f"total queries: fleet {fleet_queries} vs local {local_queries} "
          f"(x{summary['fleet_overhead_ratio']}); "
          f"{summary['bytes_per_pooled_item']} bytes shipped per pooled item")

    payload = {"schema": 3, "scale": args.scale, "workers": WORKERS,
               "rows": rows, "totals": totals, "summary": summary}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
