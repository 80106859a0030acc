#!/usr/bin/env python3
"""Strategy-regression guard: stepwise must accept everything whole accepts.

Runs the :func:`repro.bench.stepwise_comparison` experiment over all
twelve corpora (at a small scale by default, so CI stays fast), writes the
full per-benchmark comparison to a JSON artifact, and exits non-zero if
any corpus function validated under ``strategy="whole"`` but not under
``strategy="stepwise"`` — the whole-query fallback inside the stepwise
strategy makes that impossible by construction, so a violation means the
strategy plumbing regressed.

It also runs four parity legs over all twelve corpora, and fails
unless each produced identical per-function record signatures (verdict,
reason, blame, kept prefix, per-pass verdicts):

* **chain** — :func:`repro.bench.chain_comparison`: the chain-shared-graph
  stepwise path (``config.chain_graphs``, the default execution mode)
  against the per-pair oracle with ``chain_graphs=False``.  Chain graphs
  must change how fast validation runs, never what it decides.
* **incremental** — :func:`repro.bench.incremental_comparison`: a warm
  :class:`~repro.validator.watch.Revalidator` re-run after the canonical
  pipeline suffix tweak against a cold sweep of the tweaked pipeline,
  then a replay of original → tweaked on the same revalidator (fresh
  corpus copies, pipeline steps from its pass-step memo).  Every run's
  records and printed result module must equal a cold run's.
  Incremental revalidation must change how much work re-validation does,
  never what it decides.
* **backend** — :func:`repro.bench.executor_comparison`: the lazy
  serial ``llvm_md`` path (the reference) against the batch executor
  in-process (concurrency 0, ``batch``) and over ``--concurrency N``
  (default 2) of the pool's own loopback worker processes (``steal``).
  Scheduling may change where queries run, never what they decide.
  The table also reports the pool's cancellation savings (doomed pairs
  of rejected functions it never ran) and the encoded item bytes it
  shipped (``steal_bytes_dispatched``).  With
  ``--tcp-workers N`` (N > 0) the leg grows a further backend: the pool
  serving a fleet (``steal_listen``) of N spawned worker subprocesses,
  run cold and then warm over a per-corpus SQLite ``cache_dir`` that
  only the coordinator opens — both must also match the reference byte
  for byte.
* **engine** — :func:`repro.bench.engine_sweep_comparison`: the default
  ``worklist`` normalization engine against the ``fullscan`` reference
  engine.  Both sweep times land in the artifact.

Run with::

    PYTHONPATH=src python benchmarks/stepwise_guard.py [--scale 0.2] [--out FILE]
"""

import argparse
import json
import pathlib
import sys

from repro.bench import (
    chain_comparison,
    engine_sweep_comparison,
    executor_comparison,
    format_table,
    incremental_comparison,
    stepwise_comparison,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2,
                        help="corpus scale (default 0.2: tiny, CI-friendly)")
    parser.add_argument("--concurrency", type=int, default=2,
                        help="local pool workers for the backend leg's "
                             "pooled run (default 2; at least 2)")
    parser.add_argument("--tcp-workers", type=int, default=0,
                        help="also run the pool against a fleet of this many "
                             "spawned workers (steal_listen), cold and warm "
                             "(0, the default, skips the fleet legs)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/stepwise_comparison.json"),
                        help="where to write the JSON artifact")
    args = parser.parse_args()

    rows = stepwise_comparison(scale=args.scale)
    chain_rows = chain_comparison(scale=args.scale)
    incremental_rows = incremental_comparison(scale=args.scale)
    executor_rows = executor_comparison(
        scale=args.scale, concurrency=max(2, args.concurrency),
        tcp_workers=args.tcp_workers)
    engine_rows = engine_sweep_comparison(scale=args.scale)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": 11, "scale": args.scale, "rows": rows,
               "tcp_workers": args.tcp_workers,
               "concurrency": max(2, args.concurrency),
               "chain_rows": chain_rows,
               "incremental_rows": incremental_rows,
               "executor_rows": executor_rows,
               "engine_rows": engine_rows}
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    table_columns = ("benchmark", "transformed", "whole_validated", "stepwise_validated",
                     "bisect_validated", "superset_ok", "stepwise_partial",
                     "stepwise_prefix_steps", "analyses_computed", "analyses_reused")
    print(format_table([{k: row[k] for k in table_columns} for row in rows],
                       title=f"Stepwise vs whole vs bisect (scale {args.scale})"))
    print(f"artifact: {args.out}")

    failures = []
    for row in rows:
        if not row["superset_ok"]:
            failures.append(
                f"{row['benchmark']}: validated under whole but not stepwise: "
                f"{', '.join(row['superset_violations'])}"
            )
        # Reuse is only guaranteed when some function has >= 2 changed
        # steps (interior checkpoints are consumed twice); single-step
        # corpora can legitimately show zero reuse.
        if row["analyses_reused"] == 0 and row["multi_step_functions"]:
            failures.append(
                f"{row['benchmark']}: analysis cache saw no reuse in stepwise mode"
            )
    chain_columns = ("benchmark", "transformed", "identical", "chains",
                     "chain_fallbacks", "nodes_built_saved_pct",
                     "rule_invocations_saved_pct", "per_pair_time_s",
                     "chain_time_s")
    print()
    print(format_table([{k: row[k] for k in chain_columns} for row in chain_rows],
                       title="Chain-shared graphs vs per-pair oracle"))
    for row in chain_rows:
        if not row["identical"]:
            failures.append(
                f"{row['benchmark']}: chain-graph records diverged from "
                f"per-pair for: {', '.join(row['mismatches'])}"
            )
    incremental_columns = ("benchmark", "transformed", "identical",
                           "pairs_skipped_unchanged",
                           "subgraph_nodes_reused", "chain_fallbacks",
                           "rule_invocations_saved_pct",
                           "nodes_built_saved_pct", "replay_pass_steps_run",
                           "replay_pass_steps_reused", "cold_time_s",
                           "incremental_time_s")
    print()
    print(format_table([{k: row[k] for k in incremental_columns}
                        for row in incremental_rows],
                       title="Warm incremental revalidation vs cold re-run"))
    for row in incremental_rows:
        if not row["identical"]:
            failures.append(
                f"{row['benchmark']}: incremental records diverged from "
                f"cold for: {', '.join(row['mismatches'])}"
            )
    executor_columns = ("benchmark", "transformed", "identical",
                        "batch_pairs", "steal_pairs",
                        "steal_pairs_skipped", "steal_bytes_dispatched",
                        "lazy_time_s", "batch_time_s", "steal_time_s")
    if args.tcp_workers > 0:
        executor_columns += ("tcp_pairs", "tcp_warm_pairs",
                             "tcp_workers_joined", "tcp_time_s",
                             "tcp_warm_time_s")
    print()
    print(format_table([{k: row[k] for k in executor_columns}
                        for row in executor_rows],
                       title="Lazy driver vs executor (in-process and pooled)"))
    skipped = sum(row["steal_pairs_skipped"] for row in executor_rows)
    print(f"worker pool cancelled {skipped} doomed pairs")
    for row in executor_rows:
        if not row["identical"]:
            failures.append(
                f"{row['benchmark']}: backend records diverged from "
                f"the lazy driver for: {', '.join(row['mismatches'])}"
            )
    engine_columns = ("benchmark", "records", "identical",
                      "worklist_rule_invocations",
                      "fullscan_rule_invocations", "worklist_time_s",
                      "fullscan_time_s")
    print()
    print(format_table([{k: row[k] for k in engine_columns}
                        for row in engine_rows],
                       title="Worklist vs fullscan normalization engines"))
    print(f"sweep time: worklist "
          f"{sum(row['worklist_time_s'] for row in engine_rows):.2f} s, "
          f"fullscan {sum(row['fullscan_time_s'] for row in engine_rows):.2f} s")
    for row in engine_rows:
        if not row["identical"]:
            failures.append(
                f"{row['benchmark']}: worklist-engine records diverged "
                f"from fullscan for: {', '.join(row['mismatches'])}"
            )
    if failures:
        print("\nSTRATEGY REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    message = ("strategy guard OK: stepwise accepted a superset of whole on "
               "every corpus; chain-graph records matched the per-pair "
               "oracle, warm incremental revalidation matched cold records, "
               "the lazy driver and the in-process/pooled executor and "
               "worklist/fullscan engines produced identical records on "
               "every corpus")
    if args.tcp_workers > 0:
        message += (f"; the pool serving {args.tcp_workers} fleet workers "
                    f"matched the lazy driver cold and warm on every corpus")
    print(f"\n{message}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
