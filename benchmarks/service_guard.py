#!/usr/bin/env python3
"""Service guard: the daemon must reproduce the batch driver exactly.

Starts a real ``python -m repro.validator.service`` subprocess, submits
every paper corpus through the blocking client, and enforces the
acceptance criteria of the validation-as-a-service layer:

* **Record parity** — for each corpus, the record signatures streamed by
  the daemon must be byte-identical (as JSON) to what
  :func:`repro.validator.driver.validate_module_batch` computes
  in-process for the same module and pipeline.
* **Warm reuse** — an identical second submission of every corpus must
  answer at least ``--min-hit-rate`` (default 0.95) of its queries from
  the shared cache, run no pipeline step at all (every step comes
  from the daemon's pass-step memo: ``pass_steps_run == 0``) and build
  no module: the label's intake slot already holds it (``/stats``
  ``modules_parsed`` does not move).
* **Admission control** — a daemon started with ``--max-inflight 0``
  must reject a request with 503 + ``Retry-After`` (the deterministic
  reject-everything configuration).
* **Graceful drain** — ``SIGTERM`` must exit 0 after flushing the
  persistent cache to disk.

Every run writes a JSON artifact (``--out``) with the per-corpus parity
and hit-rate rows.

Run with::

    PYTHONPATH=src python benchmarks/service_guard.py \
        [--scale 0.1] [--out benchmarks/artifacts/service_guard.json]
"""

import argparse
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

from repro.bench.corpus import BENCHMARKS_BY_NAME, PAPER_BENCHMARKS, build_corpus
from repro.transforms.pass_manager import PAPER_PIPELINE
from repro.validator import DEFAULT_CONFIG, validate_module_batch
from repro.validator.service import ServiceBusy, ValidationClient


def _spawn_daemon(extra_args, cache_dir=None):
    """Start a daemon subprocess; return (proc, port)."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p)
    command = [sys.executable, "-m", "repro.validator.service", "--port", "0"]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    command += extra_args
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)
    line = proc.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"daemon did not announce a port: {line!r}")
    return proc, int(match.group(1))


def _reference_signatures(name, scale):
    module = build_corpus(BENCHMARKS_BY_NAME[name], scale)
    results = validate_module_batch([module], PAPER_PIPELINE, DEFAULT_CONFIG,
                                    strategy="stepwise")
    return [json.loads(json.dumps(record.signature()))
            for record in results[0][1].records]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="corpus scale (default 0.1: tiny, CI-friendly)")
    parser.add_argument("--min-hit-rate", type=float, default=0.95,
                        help="minimum warm-repeat cache-hit rate")
    parser.add_argument("--corpora", nargs="*", default=None,
                        help="corpus subset (default: all twelve)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(
                            "benchmarks/artifacts/service_guard.json"))
    args = parser.parse_args()

    names = args.corpora or [spec.name for spec in PAPER_BENCHMARKS]
    failures = []
    rows = []

    import tempfile
    with tempfile.TemporaryDirectory() as cache_dir:
        proc, port = _spawn_daemon(["--max-inflight", "4"],
                                   cache_dir=cache_dir)
        try:
            client = ValidationClient(port=port)
            for name in names:
                started = time.monotonic()
                cold = client.validate(corpus=name, scale=args.scale,
                                       label=name)
                streamed = [record["signature"]
                            for record in cold["records"]]
                reference = _reference_signatures(name, args.scale)
                parity = streamed == reference
                if not parity:
                    failures.append(f"{name}: daemon records diverge from "
                                    f"validate_module_batch")
                parsed = client.stats()["modules_parsed"]
                warm = client.validate(corpus=name, scale=args.scale,
                                       label=name)
                warm_parsed = client.stats()["modules_parsed"] - parsed
                if warm_parsed != 0:
                    failures.append(f"{name}: warm repeat built {warm_parsed} "
                                    f"modules (expected 0: the intake slot "
                                    f"holds it)")
                hit_rate = warm["summary"]["cache"]["hit_rate"]
                if hit_rate < args.min_hit_rate:
                    failures.append(
                        f"{name}: warm hit rate {hit_rate:.1%} < "
                        f"{args.min_hit_rate:.1%}")
                warm_steps = warm["summary"]["pass_steps_run"]
                if warm_steps != 0:
                    failures.append(f"{name}: warm repeat ran {warm_steps} "
                                    f"pass steps (expected 0)")
                rows.append({"corpus": name, "functions": len(streamed),
                             "parity": parity, "warm_hit_rate": hit_rate,
                             "warm_pass_steps_run": warm_steps,
                             "warm_modules_parsed": warm_parsed,
                             "elapsed": time.monotonic() - started})
                print(f"{name:14s} functions={len(streamed):3d} "
                      f"parity={'ok' if parity else 'FAIL'} "
                      f"warm_hits={hit_rate:.1%} "
                      f"warm_pass_steps={warm_steps} "
                      f"warm_parsed={warm_parsed}")
            stats = client.stats()
            print(f"daemon: requests={stats['requests_total']} "
                  f"revalidations={stats['revalidations']} "
                  f"modules_parsed={stats['modules_parsed']} "
                  f"modules_reused={stats['modules_reused']} "
                  f"cache_hits={stats['cache'].get('hits', 0)}")
        finally:
            # Graceful-drain criterion: SIGTERM must flush and exit 0.
            proc.send_signal(signal.SIGTERM)
            try:
                exit_code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                exit_code = proc.wait()
                failures.append("daemon did not drain within 60s of SIGTERM")
        if exit_code != 0:
            failures.append(f"daemon exited {exit_code} on SIGTERM")
        cache_files = os.listdir(cache_dir)
        if not cache_files:
            failures.append("drain did not persist the proof cache")
        print(f"SIGTERM drain: exit={exit_code} cache={cache_files}")

    # Admission-control criterion: --max-inflight 0 rejects everything.
    proc, port = _spawn_daemon(["--max-inflight", "0"])
    try:
        client = ValidationClient(port=port)
        try:
            client.validate(corpus=names[0], scale=args.scale)
            failures.append("max_inflight=0 daemon accepted a request")
            rejected = False
        except ServiceBusy as exc:
            rejected = True
            print(f"queue-full rejection: 503, retry_after={exc.retry_after}")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": 1, "scale": args.scale,
               "min_hit_rate": args.min_hit_rate, "rows": rows,
               "sigterm_exit": exit_code, "queue_full_rejected": rejected,
               "failures": failures}
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {args.out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: {len(rows)} corpora, parity + warm reuse + rejection + drain")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
