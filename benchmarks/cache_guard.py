#!/usr/bin/env python3
"""Persistent-cache guard: warm corpus sweeps must answer from disk.

Runs the :func:`repro.bench.cache_persistence` experiment — a corpus
sweep of all twelve benchmarks through one persistent (SQLite)
:class:`~repro.validator.cache.ValidationCache` — and enforces the
warm-run acceptance criteria:

* ``--mode cold`` sweeps once against an (empty or pre-existing) cache
  directory and saves it.  CI runs this first and uploads the directory
  as an artifact.
* ``--mode warm`` re-runs the sweep against an existing cache directory
  (CI: the downloaded artifact) and **fails** if the cache-hit rate is
  below ``--min-hit-rate`` (default 0.95), or unless it faulted strictly
  fewer entries than the store holds — the lazy-loading criterion.
* ``--mode both`` runs cold then warm in one process and additionally
  fails unless the warm run performed at least 95% fewer equivalence
  checks than the cold run.

Every run appends its rows to the JSON artifact given by ``--out``.

Run with::

    PYTHONPATH=src python benchmarks/cache_guard.py --mode both \
        --cache-dir .cache/validation [--scale 0.2] [--concurrency 2]
"""

import argparse
import json
import pathlib
import sys

from repro.bench import cache_persistence, format_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("cold", "warm", "both"), default="both")
    parser.add_argument("--cache-dir", required=True,
                        help="persistent validation-cache directory")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="corpus scale (default 0.2: tiny, CI-friendly)")
    parser.add_argument("--concurrency", type=int, default=2,
                        help="steal worker processes for the sharded sweep")
    parser.add_argument("--strategy", default="stepwise",
                        help="validation strategy for the sweep")
    parser.add_argument("--min-hit-rate", type=float, default=0.95,
                        help="minimum warm-run cache-hit rate (default 0.95)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/cache_persistence_guard.json"),
                        help="where to write the JSON artifact")
    args = parser.parse_args()

    from dataclasses import replace

    from repro.validator import DEFAULT_CONFIG

    config = replace(DEFAULT_CONFIG, concurrency=args.concurrency)
    runs = {"cold": ("cold",), "warm": ("warm",), "both": ("cold", "warm")}[args.mode]
    rows = cache_persistence(scale=args.scale, config=config,
                             cache_dir=args.cache_dir, strategy=args.strategy,
                             runs=runs)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": 2, "scale": args.scale, "strategy": args.strategy,
               "concurrency": args.concurrency, "mode": args.mode,
               "rows": rows}
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(format_table(rows, title=f"Persistent-cache sweep (scale {args.scale}, "
                                   f"strategy {args.strategy})"))
    print(f"artifact: {args.out}")

    failures = []
    by_run = {row["run"]: row for row in rows}
    if args.mode in ("warm", "both"):
        warm = by_run["warm"]
        if warm["hit_rate"] < args.min_hit_rate:
            failures.append(
                f"warm cache-hit rate {warm['hit_rate']:.2%} is below the "
                f"required {args.min_hit_rate:.2%}")
        if warm["disk_loaded"] and \
                warm["store_lazy_loads"] >= warm["disk_loaded"]:
            failures.append(
                f"warm run faulted {warm['store_lazy_loads']} entries "
                f"out of {warm['disk_loaded']} on disk — lazy faulting should "
                f"touch strictly fewer entries than the store holds")
    if args.mode == "both":
        cold, warm = by_run["cold"], by_run["warm"]
        if cold["checks"] == 0:
            failures.append("cold run performed no equivalence checks — "
                            "the sweep is not exercising the validator")
        elif warm["checks"] > 0.05 * cold["checks"]:
            failures.append(
                f"warm run performed {warm['checks']} equivalence checks vs "
                f"{cold['checks']} cold — less than a 95% reduction")
        if cold["validated"] != warm["validated"]:
            failures.append(
                f"verdicts drifted between runs: {cold['validated']} cold vs "
                f"{warm['validated']} warm validated functions")
    if failures:
        print("\nPERSISTENT-CACHE REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if args.mode == "cold":
        print("\ncold sweep done: cache saved for the warm job")
    else:
        print("\ncache guard OK: warm sweep answered from the persistent cache")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
