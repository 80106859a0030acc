#!/usr/bin/env python3
"""CI perf guard: gate deterministic work counters against a committed baseline.

Validation work is deterministic for a fixed corpus, configuration and
``PYTHONHASHSEED``: the number of graph nodes constructed, gate formulas
translated and node requests made (hash-cons hits included) during
construction, normalization rule invocations and equivalence (normalize)
runs of a sweep never vary between runs — only wall-clock does.  That makes them gateable: this
script compares the counters of a freshly produced
``benchmarks/artifacts/chain_graphs.json`` artifact (see
``bench_chain_graphs.py``, which pins ``PYTHONHASHSEED=0``) against the
committed ``benchmarks/perf_baseline.json`` and fails when

* any counter at any recorded corpus scale regressed by more than
  ``--tolerance`` (default 10%) — the absolute gate; or
* any counter's **growth** between the smallest and largest recorded
  scale exceeds the baseline's growth by more than ``--growth-tolerance``
  (default 10%) — the *trendline* gate.  A change whose per-scale
  absolutes squeak under the tolerance but whose scaling curve bent
  super-linear is a scaling regression and fails here.

Improvements are reported but never fail the guard; refresh the baseline
with ``--update-baseline`` after an intentional perf change and commit
it.  Single-scale (schema 1) artifacts/baselines are still accepted —
they simply have no trendline to gate.

When a ``benchmarks/artifacts/proof_store.json`` artifact is present
(produced by ``bench_proof_store.py``), the guard additionally checks
that the SQLite store loads lazily: the warm run must read fewer store
bytes than the cold run wrote, and its lazily faulted entry count must
be strictly below the store's entry count.  A missing artifact skips
this gate with a note — the counter baseline gate runs either way.

When a ``benchmarks/artifacts/remote_steal.json`` artifact is present
(produced by ``bench_remote_steal.py``), the guard also bounds the
overhead of serving an external fleet: the pool with ``steal_listen``
and spawned workers must answer at most 1.15x the total validated
queries of the pool with its own local workers.  The same artifact's
``bytes_per_pooled_item`` (encoded work-item bytes both legs shipped,
per item a worker ran) is gated against the
baseline's ``dispatch`` entry with ``--tolerance``: items carry callee
declarations, not whole modules, and a payload that drags module bodies
again fails here.  Absent artifact, same skip-with-a-note rule.

Run with::

    PYTHONPATH=src python benchmarks/bench_chain_graphs.py --scales 0.1 0.2 0.3
    PYTHONPATH=src python benchmarks/perf_guard.py
"""

import argparse
import json
import pathlib
import sys

#: Counters gated by the guard, read from the artifact's chain-mode totals
#: (the default execution mode) — plus the per-pair totals, so a
#: regression on the fallback/oracle path is caught too.
GATED_MODES = ("chain", "per_pair")
GATED_COUNTERS = ("nodes_built", "nodes_created", "rule_invocations",
                  "normalize_runs", "gate_translations", "make_calls")


def _scale_key(scale) -> str:
    """Canonical string form of a scale (``0.2`` and ``"0.2"`` collapse)."""
    try:
        return f"{float(scale):g}"
    except (TypeError, ValueError):
        return str(scale)


def _flatten_totals(totals: dict) -> dict:
    """Extract the gated ``mode.counter`` values from one totals dict."""
    counters = {}
    for mode in GATED_MODES:
        for key in GATED_COUNTERS:
            counters[f"{mode}.{key}"] = int(totals.get(mode, {}).get(key, 0))
    return counters


def _flatten(artifact: dict) -> dict:
    """Per-scale gated counters: ``{scale: {mode.counter: value}}``.

    Schema 2 artifacts carry a ``runs`` map with one totals dict per
    scale; schema 1 artifacts carry a single top-level ``totals`` keyed
    by their one ``scale``.
    """
    runs = artifact.get("runs")
    if isinstance(runs, dict) and runs:
        return {scale: _flatten_totals(run.get("totals", {}))
                for scale, run in runs.items()}
    return {_scale_key(artifact.get("scale")): _flatten_totals(artifact.get("totals", {}))}


def _growth(per_scale: dict) -> dict:
    """Counter growth from the smallest to the largest recorded scale.

    Returns ``{}`` for single-scale data (no trendline to measure).
    Growth is the plain ratio ``counter(max scale) / counter(min scale)``
    — both sides run the identical corpus generator, so comparing an
    artifact's ratio with the baseline's detects *scaling-curve* changes
    independent of the absolute level.
    """
    if len(per_scale) < 2:
        return {}
    ordered = sorted(per_scale, key=float)
    low, high = per_scale[ordered[0]], per_scale[ordered[-1]]
    growth = {}
    for name, low_value in low.items():
        high_value = high.get(name, 0)
        growth[name] = round(high_value / low_value, 4) if low_value else 0.0
    return growth


def _check_proof_store(path: pathlib.Path) -> list:
    """Gate the proof-store artifact's warm-run laziness, if present.

    Returns failure strings; an absent artifact is a skip (with a note),
    not a failure — the proof-store benchmark is optional in local runs.
    """
    if not path.exists():
        print(f"proof-store gate skipped: no artifact at {path} "
              f"(run bench_proof_store.py to produce one)")
        return []
    summary = json.loads(path.read_text()).get("summary", {})
    read = int(summary.get("warm_bytes_read", 0))
    written = int(summary.get("cold_bytes_written", 0))
    lazy = int(summary.get("warm_lazy_loads", 0))
    entries = int(summary.get("warm_entries", 0))
    print(f"proof store: warm run read {read} bytes of {written} written "
          f"cold; {lazy}/{entries} entries faulted")
    failures = []
    if read >= written:
        failures.append(
            f"proof store: warm run read {read} store bytes, not below the "
            f"{written} bytes the cold run wrote — lazy faulting regressed")
    if entries and lazy >= entries:
        failures.append(
            f"proof store: warm run faulted {lazy} of {entries} stored "
            f"entries — the warm sweep should touch strictly fewer")
    return failures


def _check_incremental(path: pathlib.Path, expected_seed,
                       min_saved_pct: float = 70.0) -> list:
    """Gate the incremental-revalidation artifact, if present.

    Incremental revalidation after the canonical suffix tweak must do at
    least ``min_saved_pct`` percent fewer rule invocations AND fewer
    node builds than a cold re-run (summed over all corpora), with
    records signature-identical to cold.  Returns failure strings; an
    absent artifact is a skip (with a note), not a failure — the
    incremental benchmark is optional in local runs.
    """
    if not path.exists():
        print(f"incremental gate skipped: no artifact at {path} "
              f"(run bench_incremental.py to produce one)")
        return []
    artifact = json.loads(path.read_text())
    failures = []
    if expected_seed is not None and artifact.get("hash_seed") != expected_seed:
        failures.append(
            f"incremental: artifact hash_seed {artifact.get('hash_seed')!r} "
            f"does not match chain baseline hash_seed {expected_seed!r}")
        return failures
    savings = artifact.get("savings", {})
    reuse = artifact.get("reuse", {})
    rules_saved = float(savings.get("rule_invocations_saved_pct", 0.0))
    nodes_saved = float(savings.get("nodes_built_saved_pct", 0.0))
    print(f"incremental: rule invocations saved {rules_saved}%, node builds "
          f"saved {nodes_saved}% (floor {min_saved_pct:g}%); "
          f"{reuse.get('pairs_skipped_unchanged', 0)} pairs adopted, "
          f"{reuse.get('subgraph_nodes_reused', 0)} nodes reused")
    if not artifact.get("identical", False):
        failures.append(
            "incremental: records are NOT signature-identical to the cold "
            "re-run (see the artifact's per-row mismatches)")
    if rules_saved < min_saved_pct:
        failures.append(
            f"incremental: rule invocations saved {rules_saved}% "
            f"< {min_saved_pct:g}% floor — dirty-suffix reuse regressed")
    if nodes_saved < min_saved_pct:
        failures.append(
            f"incremental: node builds saved {nodes_saved}% "
            f"< {min_saved_pct:g}% floor — retained-graph reuse regressed")
    return failures


def _check_remote_steal(path: pathlib.Path,
                        max_overhead: float = 1.15) -> list:
    """Gate the worker-source artifact's overhead summary, if present.

    A fleet may reorder the schedule but not the work: its total
    validated-query count must stay within ``max_overhead`` of the local
    workers'.  Returns failure strings; an absent artifact is a
    skip (with a note), not a failure — the remote-steal benchmark is
    optional in local runs.
    """
    if not path.exists():
        print(f"remote-steal gate skipped: no artifact at {path} "
              f"(run bench_remote_steal.py to produce one)")
        return []
    summary = json.loads(path.read_text()).get("summary", {})
    local_queries = int(summary.get("local_queries", 0))
    fleet_queries = int(summary.get("fleet_queries", 0))
    print(f"remote steal: fleet {fleet_queries} queries vs local "
          f"{local_queries} (cap x{max_overhead:g})")
    failures = []
    if local_queries and fleet_queries > max_overhead * local_queries:
        failures.append(
            f"remote steal: the fleet answered {fleet_queries} queries vs "
            f"local {local_queries} (> x{max_overhead:g}) — serving a fleet "
            f"is repeating work")
    return failures


def _dispatch_entry(path: pathlib.Path) -> dict:
    """The baseline ``dispatch`` entry a remote-steal artifact implies."""
    artifact = json.loads(path.read_text())
    return {"scale": _scale_key(artifact.get("scale")),
            "bytes_per_pooled_item": int(artifact.get("summary", {}).get(
                "bytes_per_pooled_item", 0))}


def _check_dispatch_bytes(path: pathlib.Path, baseline_entry,
                          tolerance: float) -> list:
    """Gate the encoded bytes shipped per pooled steal item, if present.

    Returns failure strings; an absent artifact or baseline entry is a
    skip (with a note), not a failure.
    """
    if not path.exists() or not baseline_entry:
        print(f"dispatch-bytes gate skipped: needs {path} and a baseline "
              f"'dispatch' entry")
        return []
    actual = _dispatch_entry(path)
    if actual["scale"] != _scale_key(baseline_entry.get("scale")):
        return [f"dispatch bytes: artifact scale {actual['scale']} does not "
                f"match baseline scale {baseline_entry.get('scale')}"]
    expected = int(baseline_entry.get("bytes_per_pooled_item", 0))
    shipped = actual["bytes_per_pooled_item"]
    delta = (shipped - expected) / expected if expected else 0.0
    print(f"dispatch bytes: {shipped} per pooled item vs baseline "
          f"{expected} ({delta:+.1%})")
    if delta > tolerance:
        return [f"dispatch bytes: {shipped} per pooled item vs baseline "
                f"{expected} ({delta:+.1%} > {tolerance:.0%} tolerance) — "
                f"work items are dragging more than callee declarations"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/chain_graphs.json"),
                        help="chain_graphs artifact to check")
    parser.add_argument("--proof-store-artifact", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/proof_store.json"),
                        help="proof-store artifact to gate when present "
                             "(see bench_proof_store.py)")
    parser.add_argument("--incremental-artifact", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/incremental.json"),
                        help="incremental-revalidation artifact to gate when "
                             "present (see bench_incremental.py)")
    parser.add_argument("--remote-steal-artifact", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/artifacts/remote_steal.json"),
                        help="local-vs-fleet artifact to gate when present "
                             "(see bench_remote_steal.py)")
    parser.add_argument("--remote-steal-max-overhead", type=float,
                        default=1.15,
                        help="maximum ratio of fleet to local total validated "
                             "queries (default 1.15)")
    parser.add_argument("--incremental-min-saved", type=float, default=70.0,
                        help="minimum percent of rule invocations AND node "
                             "builds incremental revalidation must save vs "
                             "cold (default 70)")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/perf_baseline.json"),
                        help="committed counter baseline")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative regression per counter per "
                             "scale (default 0.10 = 10%%)")
    parser.add_argument("--growth-tolerance", type=float, default=0.10,
                        help="allowed relative increase of the smallest-to-"
                             "largest-scale growth ratio (default 0.10)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the artifact and exit")
    args = parser.parse_args()

    artifact = json.loads(args.artifact.read_text())
    per_scale = _flatten(artifact)
    growth = _growth(per_scale)

    if args.update_baseline:
        payload = {
            "schema": 2,
            "scales": sorted(per_scale, key=float),
            "hash_seed": artifact.get("hash_seed"),
            "counters": per_scale,
            "growth": growth,
        }
        if args.remote_steal_artifact.exists():
            payload["dispatch"] = _dispatch_entry(args.remote_steal_artifact)
        elif args.baseline.exists():
            previous = json.loads(args.baseline.read_text()).get("dispatch")
            if previous:
                payload["dispatch"] = previous
        args.baseline.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text())
    if baseline.get("schema", 1) >= 2:
        baseline_per_scale = baseline.get("counters", {})
        baseline_growth = baseline.get("growth", {})
    else:
        baseline_per_scale = {_scale_key(baseline.get("scale")): baseline.get("counters", {})}
        baseline_growth = {}
    if sorted(per_scale, key=float) != sorted(baseline_per_scale, key=float):
        print(f"perf guard: artifact scales {sorted(per_scale, key=float)} do not "
              f"match baseline scales {sorted(baseline_per_scale, key=float)}",
              file=sys.stderr)
        return 1
    # Counters are only deterministic for a fixed hash seed (structural
    # signatures and φ-branch orderings vary with it), so a seed mismatch
    # would gate noise, not regressions.
    if artifact.get("hash_seed") != baseline.get("hash_seed"):
        print(f"perf guard: artifact hash_seed {artifact.get('hash_seed')!r} does not "
              f"match baseline hash_seed {baseline.get('hash_seed')!r}",
              file=sys.stderr)
        return 1

    failures = []
    for scale in sorted(baseline_per_scale, key=float):
        expected_counters = baseline_per_scale[scale]
        actual_counters = per_scale.get(scale, {})
        if not expected_counters:
            continue
        width = max(len(name) for name in expected_counters)
        print(f"scale {scale}:")
        for name, expected in sorted(expected_counters.items()):
            actual = actual_counters.get(name)
            if actual is None:
                failures.append(f"scale {scale} {name}: missing from artifact")
                continue
            if expected == 0:
                delta = 0.0 if actual == 0 else float("inf")
            else:
                delta = (actual - expected) / expected
            marker = "REGRESSION" if delta > args.tolerance else (
                "improved" if delta < 0 else "ok")
            print(f"  {name:<{width}}  baseline={expected:>9d}  actual={actual:>9d}  "
                  f"{delta:+7.1%}  {marker}")
            if delta > args.tolerance:
                failures.append(
                    f"scale {scale} {name}: {actual} vs baseline {expected} "
                    f"({delta:+.1%} > {args.tolerance:.0%} tolerance)")

    if baseline_growth and growth:
        scales = sorted(per_scale, key=float)
        width = max(len(name) for name in baseline_growth)
        print(f"growth (scale {scales[0]} -> {scales[-1]}):")
        for name, expected in sorted(baseline_growth.items()):
            actual = growth.get(name)
            if actual is None:
                failures.append(f"growth {name}: missing from artifact")
                continue
            if expected == 0:
                delta = 0.0 if actual == 0 else float("inf")
            else:
                delta = (actual - expected) / expected
            marker = "SUPER-LINEAR" if delta > args.growth_tolerance else (
                "improved" if delta < 0 else "ok")
            print(f"  {name:<{width}}  baseline=x{expected:<8.3f}  actual=x{actual:<8.3f}  "
                  f"{delta:+7.1%}  {marker}")
            if delta > args.growth_tolerance:
                failures.append(
                    f"growth {name}: x{actual:.3f} vs baseline x{expected:.3f} "
                    f"({delta:+.1%} > {args.growth_tolerance:.0%} tolerance) — "
                    f"super-linear scaling regression")

    failures += _check_proof_store(args.proof_store_artifact)
    failures += _check_remote_steal(args.remote_steal_artifact,
                                    args.remote_steal_max_overhead)
    failures += _check_dispatch_bytes(args.remote_steal_artifact,
                                      baseline.get("dispatch"),
                                      args.tolerance)
    failures += _check_incremental(args.incremental_artifact,
                                   baseline.get("hash_seed"),
                                   args.incremental_min_saved)

    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    trend = " and growth trendline" if baseline_growth else ""
    print(f"\nperf guard OK: every counter within {args.tolerance:.0%} of "
          f"baseline{trend} at every scale")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
