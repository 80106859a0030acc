#!/usr/bin/env python3
"""Chaos guard: seeded fault schedules must not change what validation decides.

Runs four deterministic fault schedules — a worker **crash**, a pair
**hang**, a proof-store **flush** failure and a **corrupt** result
payload — over three corpora on the executor's worker pool
(``concurrency`` 2), and fails unless:

* every chaotic run *completes* and produces per-function record
  signatures identical to a fault-free in-process baseline (concurrency
  0), except for the
  records explicitly denied by the schedule (a hung pair settles with
  reason ``"timeout"``; a poison pair settles as ``"quarantined"``) —
  and there is at most one such denial per schedule;
* crash schedules recover by **supervision**, not degradation: the shard
  stats must show ``workers_respawned >= 1`` and ``pool_degraded == 0``
  (a single worker death costs one respawn, never an in-process rerun);
* the proof cache is never poisoned: after every chaotic run, no cache
  entry carries a synthetic denial reason (``timeout``, ``quarantined``,
  ``budget-exhausted``), and a locked sqlite flush retries to disk
  without counting a store error.

With ``--sites network`` the sweep instead exercises the TCP steal
transport's fault plane with loopback remote worker subprocesses: a **conn-drop** (the coordinator loses a worker's
connection right after handing it an item — must recover by respawn +
requeue, never degradation), a **conn-delay** (a result frame is held
back — ordering noise only, records must not change) and a rejected
**handshake** (the worker's first join attempt is refused — its
reconnect loop must get it accepted on the retry).  Every schedule must
still produce baseline-identical records with zero denials.

The schedules are seeded (:class:`~repro.validator.faults.FaultPlan` is
deterministic per process), so a failure here reproduces locally with
the same command.

Run with::

    PYTHONPATH=src python benchmarks/chaos_guard.py [--scale 0.1] [--out FILE]
    PYTHONPATH=src python benchmarks/chaos_guard.py --sites network
"""

import argparse
import json
import pathlib
import socket
import sys
import tempfile
import time
from dataclasses import replace

from repro.bench.corpus import BENCHMARKS_BY_NAME, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import faults
from repro.validator.cache import ValidationCache
from repro.validator.config import DEFAULT_CONFIG
from repro.validator.driver import validate_module_batch
from repro.validator.faults import FaultPlan, FaultSpec
from repro.validator.scheduler.remote import spawn_workers
from repro.validator.validate import UNCACHEABLE_REASONS

CORPORA = ("sqlite", "milc", "libquantum")
CONCURRENCY = 2
BACKEND = "steal"

#: schedule name -> (plan factory, config overrides, max denied records).
#: Fault-site visit counters are per *process*, so a count=1 hang spec
#: fires once in the parent and once in each worker — the denial
#: allowance for the hang schedule is therefore CONCURRENCY + 1.
SCHEDULES = {
    # Kill one worker, exactly once: the parent-side "steal-dispatch"
    # site counts across respawns, so "once" means once (a worker-side
    # crash counter would reset with the fresh process and fire again).
    "crash": (lambda: FaultPlan.of(
        FaultSpec("steal-dispatch", "crash", "", 2, 1), seed=7), {}, 0),
    "hang": (lambda: FaultPlan.hang_pair(match="", seconds=5.0, at=1, count=1),
             {"pair_timeout": 0.2, "chain_graphs": False}, CONCURRENCY + 1),
    "flush": (lambda: FaultPlan.flush_error("lock", at=1, count=1), {}, 0),
    "corrupt": (lambda: FaultPlan.corrupt_payload(), {}, 0),
}


#: schedule name -> plan factory for the ``--sites network`` sweep.  All
#: three must recover with zero denied records: conn-drop requeues, the
#: delayed result still arrives, and a rejected handshake is retried by
#: the worker's reconnect loop.
NETWORK_SCHEDULES = {
    "conn-drop": lambda: FaultPlan.of(
        FaultSpec("conn-drop", "crash", "", 2, 1), seed=7),
    "conn-delay": lambda: FaultPlan.of(
        FaultSpec("conn-delay", "hang", "", 1, 1, 0.3), seed=7),
    "handshake": lambda: FaultPlan.of(
        FaultSpec("handshake", "raise", "worker", 1, 1), seed=7),
}


def run_one(module, config, cache):
    start = time.perf_counter()
    [(_, report)] = validate_module_batch(
        [module], PAPER_PIPELINE, config=config, cache=cache,
        strategy="stepwise")
    elapsed = time.perf_counter() - start
    return report, elapsed


def poisoned_entries(cache):
    return [key for key, result in cache._results.items()
            if result.reason in UNCACHEABLE_REASONS]


def network_sweep(args) -> int:
    """Seeded network faults on the TCP steal transport must change nothing.

    Spawns two reconnecting remote workers against a fixed loopback port,
    then runs every :data:`NETWORK_SCHEDULES` plan per corpus through the
    coordinator.  All schedules must settle every record identically to a
    fault-free in-process baseline with zero denials, zero degradations and
    an unpoisoned cache; conn-drop must additionally prove supervised
    recovery (a respawn) somewhere in the sweep, and every handshake run
    must have actually rejected (and re-admitted) a worker.
    """
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    address = f"127.0.0.1:{port}"
    workers = spawn_workers(address, CONCURRENCY, reconnect=True,
                            patience=900.0)

    failures = []
    rows = []
    try:
        for corpus_name in CORPORA:
            module = build_corpus(BENCHMARKS_BY_NAME[corpus_name], args.scale)
            faults.reset()
            baseline, _ = run_one(module, DEFAULT_CONFIG, ValidationCache())
            clean_sigs = [r.signature() for r in baseline.records]
            clean_by_name = {sig["name"]: sig for sig in clean_sigs}
            for schedule, make_plan in NETWORK_SCHEDULES.items():
                plan = make_plan()
                config = replace(DEFAULT_CONFIG, concurrency=CONCURRENCY,
                                 steal_transport="tcp",
                                 steal_listen=address, fault_plan=plan)
                faults.reset()
                cache = ValidationCache()
                report, elapsed = run_one(module, config, cache)
                sigs = [r.signature() for r in report.records]
                shard = report.shard_stats or {}
                denied = [sig for sig in sigs
                          if any(reason in json.dumps(sig)
                                 for reason in ("timeout", "quarantined"))]
                mismatched = [sig["name"] for sig in sigs
                              if sig != clean_by_name.get(sig["name"])]
                if len(sigs) != len(clean_sigs):
                    failures.append(
                        f"{corpus_name}/tcp/{schedule}: {len(sigs)} records "
                        f"vs {len(clean_sigs)} clean")
                if mismatched:
                    failures.append(
                        f"{corpus_name}/tcp/{schedule}: records diverged "
                        f"from the fault-free baseline for: "
                        f"{', '.join(mismatched)}")
                if denied:
                    failures.append(
                        f"{corpus_name}/tcp/{schedule}: {len(denied)} denied "
                        f"records (network schedules allow none)")
                if shard.get("pool_degraded", 0):
                    failures.append(
                        f"{corpus_name}/tcp/{schedule}: the transport fault "
                        f"degraded the pool to in-process execution")
                poisoned = poisoned_entries(cache)
                if poisoned:
                    failures.append(
                        f"{corpus_name}/tcp/{schedule}: {len(poisoned)} "
                        f"synthetic denials poisoned the proof cache")
                # A corpus too small to engage the pooled path never
                # starts a coordinator, so nobody connects and nothing
                # can be rejected; the sweep-level check below still
                # requires a rejection on some corpus.
                if schedule == "handshake" \
                        and shard.get("remote_workers_joined", 0) \
                        and not shard.get("handshakes_rejected", 0):
                    failures.append(
                        f"{corpus_name}/tcp/{schedule}: workers joined but "
                        f"the schedule never rejected a handshake")
                rows.append({
                    "corpus": corpus_name,
                    "backend": "tcp",
                    "schedule": schedule,
                    "records": len(sigs),
                    "denied": len(denied),
                    "mismatched": len(mismatched),
                    "workers_respawned": shard.get("workers_respawned", 0),
                    "item_retries": shard.get("item_retries", 0),
                    "pool_degraded": shard.get("pool_degraded", 0),
                    "workers_joined": shard.get("remote_workers_joined", 0),
                    "workers_left": shard.get("remote_workers_left", 0),
                    "handshakes_rejected": shard.get("handshakes_rejected", 0),
                    "time_s": round(elapsed, 3),
                })
                print(f"{corpus_name:>10}/tcp   {schedule:<10} "
                      f"records={len(sigs):<3} denied={len(denied)} "
                      f"respawned={shard.get('workers_respawned', 0)} "
                      f"joined={shard.get('remote_workers_joined', 0)} "
                      f"rejected={shard.get('handshakes_rejected', 0)} "
                      f"({elapsed:.2f}s)")
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()

    # Small corpora may settle before the second dispatch the conn-drop
    # spec waits for, so the respawn proof is sweep-level, like the
    # process-site crash schedule's.
    if not any(row["workers_respawned"] for row in rows
               if row["schedule"] == "conn-drop"):
        failures.append(
            "conn-drop: no corpus in the sweep exercised a worker "
            "respawn after a severed connection")
    if not any(row["handshakes_rejected"] for row in rows
               if row["schedule"] == "handshake"):
        failures.append(
            "handshake: no corpus in the sweep exercised a handshake "
            "rejection")

    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"scale": args.scale, "sites": "network",
                                   "runs": rows}, indent=2) + "\n")
        print(f"wrote {out}")

    if failures:
        print("\nCHAOS REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nchaos guard OK: every seeded network fault schedule recovered "
          "with baseline-identical records and an unpoisoned proof cache")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="corpus scale (default 0.1: tiny, CI-friendly)")
    parser.add_argument("--sites", choices=("process", "network"),
                        default="process",
                        help="fault plane to sweep: in-process scheduling "
                             "sites (the default) or the TCP transport's "
                             "network sites with remote worker subprocesses")
    parser.add_argument("--out", default=None,
                        help="write the per-run table to this JSON file")
    args = parser.parse_args()

    if args.sites == "network":
        return network_sweep(args)

    failures = []
    rows = []
    for corpus_name in CORPORA:
        module = build_corpus(BENCHMARKS_BY_NAME[corpus_name], args.scale)
        baselines = {}
        for schedule, (make_plan, overrides, max_denied) in SCHEDULES.items():
            # Fault-free in-process baseline under the same non-fault
            # config knobs (one per override set).
            baseline_key = tuple(sorted(overrides.items()
                                        - {("pair_timeout", 0.2)}))
            if baseline_key not in baselines:
                base_config = replace(DEFAULT_CONFIG,
                                      **{k: v for k, v in overrides.items()
                                         if k != "pair_timeout"})
                faults.reset()
                baseline, _ = run_one(module, base_config,
                                      ValidationCache())
                baselines[baseline_key] = [r.signature()
                                           for r in baseline.records]
            clean_sigs = baselines[baseline_key]

            plan = make_plan()
            config = replace(DEFAULT_CONFIG, concurrency=CONCURRENCY,
                             fault_plan=plan,
                             **overrides)
            faults.reset()
            if schedule == "flush":
                with tempfile.TemporaryDirectory() as tmp:
                    cache = ValidationCache(tmp, fault_plan=plan)
                    report, elapsed = run_one(module, config, cache)
                    flushed = cache.save()
                    stats = cache.stats()
                    if stats.get("store_errors", 0):
                        failures.append(
                            f"{corpus_name}/{BACKEND}/{schedule}: locked "
                            f"flush degraded the store "
                            f"(store_errors={stats['store_errors']})")
                    if len(cache) and not flushed \
                            and not stats.get("store_flushes", 0):
                        failures.append(
                            f"{corpus_name}/{BACKEND}/{schedule}: "
                            f"nothing reached the sqlite store")
            else:
                cache = ValidationCache()
                report, elapsed = run_one(module, config, cache)
                stats = cache.stats()

            sigs = [r.signature() for r in report.records]
            shard = report.shard_stats or {}
            clean_by_name = {sig["name"]: sig for sig in clean_sigs}
            denied = [sig for sig in sigs
                      if any(reason in json.dumps(sig)
                             for reason in ("timeout", "quarantined"))]
            mismatched = [sig["name"] for sig in sigs
                          if sig not in denied
                          and sig != clean_by_name.get(sig["name"])]
            if len(sigs) != len(clean_sigs):
                failures.append(
                    f"{corpus_name}/{BACKEND}/{schedule}: "
                    f"{len(sigs)} records vs {len(clean_sigs)} clean")
            if mismatched:
                failures.append(
                    f"{corpus_name}/{BACKEND}/{schedule}: records "
                    f"diverged from the fault-free baseline for: "
                    f"{', '.join(mismatched)}")
            if len(denied) > max_denied:
                failures.append(
                    f"{corpus_name}/{BACKEND}/{schedule}: {len(denied)} "
                    f"denied records (schedule allows {max_denied})")
            poisoned = poisoned_entries(cache)
            if poisoned:
                failures.append(
                    f"{corpus_name}/{BACKEND}/{schedule}: {len(poisoned)} "
                    f"synthetic denials poisoned the proof cache")
            if schedule == "crash":
                if shard.get("pool_degraded", 0):
                    failures.append(
                        f"{corpus_name}/{BACKEND}/{schedule}: crash "
                        f"degraded the pool to in-process instead of "
                        f"respawning")
                # A corpus too small to engage the pooled path never
                # dispatches, so the kill site never fires there; the
                # sweep-level check below still requires a respawn
                # on some corpus.
                if shard.get("workers", 0) \
                        and not shard.get("workers_respawned", 0):
                    failures.append(
                        f"{corpus_name}/{BACKEND}/{schedule}: workers "
                        f"ran but the crash schedule never exercised "
                        f"a respawn")
            rows.append({
                "corpus": corpus_name,
                "backend": BACKEND,
                "schedule": schedule,
                "records": len(sigs),
                "denied": len(denied),
                "mismatched": len(mismatched),
                "workers_respawned": shard.get("workers_respawned", 0),
                "pairs_quarantined": shard.get("pairs_quarantined", 0),
                "item_retries": shard.get("item_retries", 0),
                "pool_degraded": shard.get("pool_degraded", 0),
                "store_retries": stats.get("store_retries", 0),
                "store_errors": stats.get("store_errors", 0),
                "time_s": round(elapsed, 3),
            })
            print(f"{corpus_name:>10}/{BACKEND:<5} {schedule:<7} "
                  f"records={len(sigs):<3} denied={len(denied)} "
                  f"respawned={shard.get('workers_respawned', 0)} "
                  f"retries={shard.get('item_retries', 0)} "
                  f"degraded={shard.get('pool_degraded', 0)} "
                  f"({elapsed:.2f}s)")

    # The backend must have proven supervised recovery somewhere in the
    # sweep — a crash that only ever lands on too-small corpora would
    # otherwise pass without exercising the respawn path at all.
    if not any(row["workers_respawned"] for row in rows
               if row["schedule"] == "crash"):
        failures.append(
            f"{BACKEND}: no corpus in the sweep exercised a worker "
            f"respawn under the crash schedule")

    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"scale": args.scale, "sites": "process",
                                   "runs": rows}, indent=2) + "\n")
        print(f"wrote {out}")

    if failures:
        print("\nCHAOS REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nchaos guard OK: every seeded fault schedule recovered with "
          "baseline-identical records and an unpoisoned proof cache")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
