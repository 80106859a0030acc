#!/usr/bin/env python3
"""Chain-shared graphs vs the per-pair stepwise baseline, as a JSON artifact.

Runs the :func:`repro.bench.chain_comparison` experiment over all twelve
corpora: each corpus is swept twice with the stepwise strategy — once
with ``chain_graphs=False`` (one fresh two-version graph per adjacent
checkpoint pair) and once with ``chain_graphs=True`` (every checkpoint
chain hash-consed into ONE graph, normalized once) — and the artifact
records both modes' deterministic work counters (nodes built, nodes
created, rule invocations, normalize runs, gate translations and graph
``make`` calls), the record-signature parity
verdict, and the aggregate savings percentages.

The experiment runs at **several corpus scales** (``--scales``, default
0.1/0.15/0.2) so the artifact carries a *trendline*, not a point: the
committed CI perf baseline (``benchmarks/perf_baseline.json``, enforced
by ``benchmarks/perf_guard.py``) gates both the absolute counters at
every scale and the counter *growth* between the smallest and largest
scale, catching super-linear scaling regressions that per-scale
tolerances would let through.

Counters are deterministic for a fixed ``PYTHONHASHSEED`` (structural
signatures hash strings, and φ-branch orderings follow them), so the
script re-executes itself with ``PYTHONHASHSEED=0`` unless the caller
already pinned one — artifacts and baselines are always comparable.

Run with::

    PYTHONPATH=src python benchmarks/bench_chain_graphs.py [--scales 0.1 0.15 0.2] [--out FILE]
"""

import argparse
import json
import os
import pathlib
import sys


from repro.bench import chain_comparison, format_table


def _ensure_pinned_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0`` so counters are reproducible.

    Only ever called from the ``__main__`` guard — the pytest benchmark
    harness imports every ``bench_*.py`` file, and an import-time exec
    would restart the whole collecting process.
    """
    if os.environ.get("PYTHONHASHSEED") is None:
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], environment)

#: The counters the perf guard gates on (summed over all corpora).
COUNTER_KEYS = ("nodes_built", "nodes_created", "rule_invocations",
                "normalize_runs", "gate_translations", "make_calls")


def _sweep_scale(scale: float):
    """Run the comparison at one scale; returns (rows, totals, savings, errors)."""
    rows = chain_comparison(scale=scale)
    totals = {"per_pair": {key: 0 for key in COUNTER_KEYS},
              "chain": {key: 0 for key in COUNTER_KEYS}}
    chains = fallbacks = 0
    parity_failures = []
    for row in rows:
        for key in COUNTER_KEYS:
            totals["per_pair"][key] += int(row[f"per_pair_{key}"])
            totals["chain"][key] += int(row[f"chain_{key}"])
        chains += int(row["chains"])
        fallbacks += int(row["chain_fallbacks"])
        if not row["identical"]:
            parity_failures.append(
                f"{row['benchmark']} (scale {scale}): {', '.join(row['mismatches'])}")
    savings = {}
    for key in COUNTER_KEYS:
        off_value = totals["per_pair"][key]
        on_value = totals["chain"][key]
        savings[f"{key}_saved_pct"] = round(
            100.0 * (1.0 - on_value / off_value), 1) if off_value else 0.0
    return rows, totals, savings, chains, fallbacks, parity_failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scales", type=float, nargs="+",
                        default=[0.1, 0.15, 0.2],
                        help="corpus scales for the trendline "
                             "(default: 0.1 0.15 0.2, CI-friendly)")
    parser.add_argument("--scale", type=float, default=None,
                        help="single-scale shorthand (overrides --scales)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/chain_graphs.json"),
                        help="where to write the JSON artifact")
    args = parser.parse_args()
    scales = [args.scale] if args.scale is not None else sorted(args.scales)
    primary = scales[-1] if 0.2 not in scales else 0.2

    runs = {}
    parity_failures = []
    for scale in scales:
        rows, totals, savings, chains, fallbacks, failures = _sweep_scale(scale)
        parity_failures += failures
        runs[f"{scale:g}"] = {
            "scale": scale,
            "rows": rows,
            "totals": totals,
            "savings": savings,
            "chains": chains,
            "chain_fallbacks": fallbacks,
        }
        table_columns = ("benchmark", "transformed", "identical", "chains",
                         "per_pair_nodes_built", "chain_nodes_built",
                         "nodes_built_saved_pct",
                         "per_pair_rule_invocations", "chain_rule_invocations",
                         "rule_invocations_saved_pct")
        print(format_table([{k: row[k] for k in table_columns} for row in rows],
                           title=f"Chain-shared vs per-pair stepwise (scale {scale})"))
        print(f"overall savings at scale {scale}: "
              f"nodes built {savings['nodes_built_saved_pct']}%, "
              f"nodes created {savings['nodes_created_saved_pct']}%, "
              f"rule invocations {savings['rule_invocations_saved_pct']}%, "
              f"normalize runs {savings['normalize_runs_saved_pct']}%\n")

    primary_run = runs[f"{primary:g}"]
    payload = {
        "schema": 2,
        # Primary-scale fields keep the single-scale artifact shape alive
        # for consumers (and baselines) that predate the trendline.
        "scale": primary,
        "scales": [f"{scale:g}" for scale in scales],
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "rows": primary_run["rows"],
        "totals": primary_run["totals"],
        "savings": primary_run["savings"],
        "chains": primary_run["chains"],
        "chain_fallbacks": primary_run["chain_fallbacks"],
        "runs": runs,
        "identical": not parity_failures,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {args.out}")

    if parity_failures:
        print("\nCHAIN PARITY REGRESSION:", file=sys.stderr)
        for line in parity_failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    _ensure_pinned_hash_seed()
    raise SystemExit(main())
