#!/usr/bin/env python3
"""Remote-steal guard: cross-host scheduling must change nothing but speed.

Spawns two reconnecting remote worker subprocesses against a fixed
loopback port plus a standalone served proof store, then drives four
legs over all twelve paper corpora:

* **serial** — the fault-free in-process oracle (concurrency 0) every
  other leg must match.
* **tcp** — the executor's pool over its TCP transport with the remote
  workers; per-function record signatures must be byte-identical to
  serial (cold: no cache anywhere).
* **store cold / store warm** — the driver consulting the served proof
  store through a ``remote://HOST:PORT`` ``config.cache_dir`` (no local
  cache files).  The cold
  run populates the store through write-behind flushes; the warm run
  must then answer **every** pair from it (``distinct_pairs == 0``)
  using batched planning-time gets (``store_batched_gets > 0``) — and
  still match serial byte for byte.
* **kill** — the tcp leg under a seeded ``conn-drop`` fault (the
  coordinator severs a worker's connection right after handing it an
  item).  Records must still match serial with zero denials, the
  pool must not degrade to in-process execution, the proof cache must stay
  unpoisoned, and somewhere in the sweep the drop must actually land:
  ``workers_respawned >= 1`` and ``item_retries >= 1``.

Run with::

    PYTHONPATH=src python benchmarks/remote_steal_guard.py [--scale 0.2] [--out FILE]
"""

import argparse
import json
import pathlib
import socket
import sys
import tempfile
import time
from dataclasses import replace

from repro.bench.corpus import PAPER_BENCHMARKS, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import faults
from repro.validator.cache import REMOTE_PREFIX, ValidationCache
from repro.validator.config import DEFAULT_CONFIG
from repro.validator.driver import validate_module_batch
from repro.validator.faults import FaultPlan, FaultSpec
from repro.validator.scheduler.remote import ServedStore, spawn_workers
from repro.validator.scheduler.transport import TcpStealPool
from repro.validator.validate import UNCACHEABLE_REASONS

WORKERS = 2


def probe_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def run_one(module, config, cache):
    start = time.perf_counter()
    [(_, report)] = validate_module_batch(
        [module], PAPER_PIPELINE, config=config, cache=cache,
        strategy="stepwise")
    return report, time.perf_counter() - start


def signatures(report):
    return [record.signature() for record in report.records]


def poisoned_entries(cache):
    return [key for key, result in cache._results.items()
            if result.reason in UNCACHEABLE_REASONS]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2,
                        help="corpus scale (default 0.2: tiny, CI-friendly)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(
                            "benchmarks/artifacts/remote_steal_guard.json"),
                        help="where to write the JSON artifact")
    args = parser.parse_args()

    steal_address = f"127.0.0.1:{probe_port()}"
    worker_procs = spawn_workers(steal_address, WORKERS, reconnect=True,
                                 patience=900.0)
    store_dir = tempfile.TemporaryDirectory(prefix="repro-remote-steal-")
    store_pool = TcpStealPool(
        1, None, listen="127.0.0.1:0",
        store=ServedStore(store_dir.name))
    store_address = f"{store_pool.address[0]}:{store_pool.address[1]}"

    store_config = replace(DEFAULT_CONFIG,
                           cache_dir=f"{REMOTE_PREFIX}{store_address}")
    tcp_config = replace(DEFAULT_CONFIG, concurrency=WORKERS,
                         steal_transport="tcp", steal_listen=steal_address)
    kill_plan = FaultPlan.of(FaultSpec("conn-drop", "crash", "", 2, 1),
                             seed=7)
    failures = []
    rows = []
    try:
        for spec in PAPER_BENCHMARKS:
            module = build_corpus(spec, args.scale)
            faults.reset()
            serial, _ = run_one(module, DEFAULT_CONFIG, ValidationCache())
            serial_sigs = signatures(serial)

            legs = {}
            for leg, config in (
                    ("tcp", tcp_config),
                    ("store_cold", store_config),
                    ("store_warm", store_config),
                    ("kill", replace(tcp_config, fault_plan=kill_plan))):
                faults.reset()
                cache = ValidationCache() if leg in ("tcp", "kill") else None
                report, elapsed = run_one(module, config, cache)
                shard = report.shard_stats or {}
                legs[leg] = (report, shard, elapsed)
                if signatures(report) != serial_sigs:
                    failures.append(
                        f"{spec.name}/{leg}: record signatures diverged "
                        f"from serial")
                if leg in ("tcp", "kill"):
                    if shard.get("pool_degraded", 0):
                        failures.append(
                            f"{spec.name}/{leg}: the pool degraded "
                            f"to in-process execution")
                    if poisoned_entries(cache):
                        failures.append(
                            f"{spec.name}/{leg}: synthetic denials "
                            f"poisoned the proof cache")

            warm_shard = legs["store_warm"][1]
            if warm_shard.get("distinct_pairs", 0):
                failures.append(
                    f"{spec.name}/store_warm: {warm_shard['distinct_pairs']} "
                    f"pairs re-validated despite a populated served store")
            if serial_sigs and not warm_shard.get("store_batched_gets", 0):
                failures.append(
                    f"{spec.name}/store_warm: planning never issued a "
                    f"batched get against the served store")

            kill_shard = legs["kill"][1]
            rows.append({
                "benchmark": spec.name,
                "records": len(serial_sigs),
                "tcp_workers_joined":
                    legs["tcp"][1].get("remote_workers_joined", 0),
                "tcp_time_s": round(legs["tcp"][2], 3),
                "store_cold_flushes":
                    legs["store_cold"][1].get("store_flushes", 0),
                "store_warm_rpcs": warm_shard.get("store_rpcs", 0),
                "store_warm_batched_gets":
                    warm_shard.get("store_batched_gets", 0),
                "store_warm_distinct_pairs":
                    warm_shard.get("distinct_pairs", 0),
                "kill_respawned": kill_shard.get("workers_respawned", 0),
                "kill_item_retries": kill_shard.get("item_retries", 0),
                "kill_degraded": kill_shard.get("pool_degraded", 0),
            })
            print(f"{spec.name:>12}: records={len(serial_sigs):<3} "
                  f"tcp_joined={rows[-1]['tcp_workers_joined']} "
                  f"warm_gets={rows[-1]['store_warm_batched_gets']} "
                  f"warm_pairs={rows[-1]['store_warm_distinct_pairs']} "
                  f"kill_respawned={rows[-1]['kill_respawned']} "
                  f"kill_retries={rows[-1]['kill_item_retries']}")
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

    # Corpora too small to engage the pooled path never dispatch, so the
    # conn-drop proof is sweep-level: somewhere the severed connection
    # must have cost exactly a respawn and a requeue.
    if not any(row["kill_respawned"] for row in rows):
        failures.append(
            "kill: no corpus in the sweep exercised a worker respawn "
            "after the injected connection drop")
    if not any(row["kill_item_retries"] for row in rows):
        failures.append(
            "kill: no corpus in the sweep requeued an in-flight item "
            "after the injected connection drop")
    if not any(row["tcp_workers_joined"] for row in rows):
        failures.append(
            "tcp: no corpus in the sweep was served by a remote worker")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"schema": 1, "scale": args.scale, "workers": WORKERS,
         "rows": rows}, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {args.out}")

    if failures:
        print("\nREMOTE STEAL REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nremote steal guard OK: tcp, served-store and kill-mid-batch "
          "legs matched serial records on every corpus; the warm leg "
          "answered every pair from the served store over batched gets")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
