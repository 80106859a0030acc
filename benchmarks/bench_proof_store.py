#!/usr/bin/env python3
"""Proof-store I/O benchmark: cold vs warm SQLite sweeps, as a JSON artifact.

Runs the :func:`repro.bench.cache_persistence` experiment once against a
fresh cache directory — a cold sweep that fills the SQLite proof store,
then a warm sweep that answers from it — and records both rows:
wall-clock, store bytes read and written, entries faulted lazily
(``store_lazy_loads``), incremental flushes and the warm hit rate.

The interesting columns are the warm run's reads: the store faults in
only the payloads the planner actually peeks, so the warm run must read
fewer bytes than the cold run wrote and fault fewer entries than the
store holds.  ``benchmarks/perf_guard.py`` gates both from this artifact
(and skips the gate with a note when the artifact is absent).

Run with::

    PYTHONPATH=src python benchmarks/bench_proof_store.py [--scale 0.2] [--out FILE]
"""

import argparse
import json
import pathlib
import tempfile

from repro.bench import cache_persistence, format_table

#: Row fields carried into the table.
TABLE_COLUMNS = ("run", "backend", "hit_rate", "entries", "disk_loaded",
                 "store_lazy_loads", "store_flushes", "store_bytes_read",
                 "store_bytes_written", "time_s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2,
                        help="corpus scale (default 0.2: the largest guard "
                             "scale, matching cache_guard.py)")
    parser.add_argument("--concurrency", type=int, default=2,
                        help="steal worker processes for the sweeps")
    parser.add_argument("--strategy", default="stepwise",
                        help="validation strategy for the sweeps")
    parser.add_argument("--cache-root", type=pathlib.Path, default=None,
                        help="directory to hold the cache dir "
                             "(default: a fresh temp dir, discarded after)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/proof_store.json"),
                        help="where to write the JSON artifact")
    args = parser.parse_args()

    from dataclasses import replace

    from repro.validator import DEFAULT_CONFIG

    config = replace(DEFAULT_CONFIG, concurrency=args.concurrency)
    with tempfile.TemporaryDirectory(prefix="proof-store-") as scratch:
        cache_dir = (args.cache_root or pathlib.Path(scratch)) / "sqlite"
        cache_dir.mkdir(parents=True, exist_ok=True)
        rows = cache_persistence(scale=args.scale, config=config,
                                 cache_dir=str(cache_dir),
                                 strategy=args.strategy,
                                 runs=("cold", "warm"))
    print(format_table([{k: row[k] for k in TABLE_COLUMNS} for row in rows],
                       title=f"Proof store: sqlite (scale {args.scale})"))
    print()

    runs = {row["run"]: row for row in rows}
    cold, warm = runs["cold"], runs["warm"]
    summary = {
        "cold_bytes_written": int(cold["store_bytes_written"]),
        "warm_bytes_read": int(warm["store_bytes_read"]),
        "warm_lazy_loads": int(warm["store_lazy_loads"]),
        "warm_entries": int(warm["disk_loaded"]),
    }
    print(f"warm store read {summary['warm_bytes_read']} bytes of the "
          f"{summary['cold_bytes_written']} the cold run wrote; faulted "
          f"{summary['warm_lazy_loads']} of {summary['warm_entries']} "
          f"stored entries")

    payload = {"schema": 2, "scale": args.scale, "strategy": args.strategy,
               "concurrency": args.concurrency, "runs": runs,
               "summary": summary}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
