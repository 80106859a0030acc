"""The repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload stepwise-serial --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json`` measured with tracing off; ``--trace 1``
prints its per-layer metrics from a traced run (plus an untraced one, for
``trace_overhead_pct``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the run's details (seeds, digest, sweep counts).
Correctness checks run outside every timed region; a failed check makes
the run incorrect and counts as a failed operation.
"""

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Counters that drift with Python's string hashing (phi ordering) repeat
#: exactly only under a pinned hash seed.
PINNED_HASH_SEED = "0"


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    spec = _benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=None,
                        help="corpus scale override (smoke tests use a tiny one)")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no repro package under {source}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != PINNED_HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=PINNED_HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (source, os.environ.get("PYTHONPATH")) if path)
    sys.path.insert(0, source)
    # Unwind on SIGTERM too, so every started daemon is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from workloads import run_workload

    metrics, attempted, failed, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = set(metrics) - {metric["name"] for metric in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, pythonhashseed=os.environ["PYTHONHASHSEED"])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": float(metrics.get(metric["name"], 0.0)),
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
