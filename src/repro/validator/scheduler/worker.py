"""``python -m repro.validator.scheduler.worker`` — join a steal coordinator.

A fleet worker for the executor's pool: point one or more of these at a
coordinator (a batch run with ``config.steal_listen`` set, which then
starts no local worker of its own) and they pull work items off its
queue, validate them and send each verdict back in a result frame.  A
worker opens no proof store: the coordinator ships only items its own
cache found uncached and files the returned verdicts there.  Workers
join and leave dynamically; ``--reconnect`` keeps a worker serving
across the per-batch coordinator restarts of a sweep.

Two-terminal loopback example::

    # terminal 1: the fleet (any number of these, any time)
    PYTHONPATH=src python -m repro.validator.scheduler.worker \\
        --connect 127.0.0.1:8742 --reconnect

    # terminal 2: a batch run that listens for it
    PYTHONPATH=src python - <<'PY'
    from dataclasses import replace
    from repro.bench.corpus import BENCHMARKS_BY_NAME, build_corpus
    from repro.transforms import PAPER_PIPELINE
    from repro.validator import DEFAULT_CONFIG
    from repro.validator.driver import validate_module_batch

    config = replace(DEFAULT_CONFIG, concurrency=2,
                     steal_listen="127.0.0.1:8742")
    module = build_corpus(BENCHMARKS_BY_NAME["gcc"], 0.2)
    [(_, report)] = validate_module_batch([module], PAPER_PIPELINE,
                                          config=config)
    print(report.shard_stats)
    PY
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .remote import run_worker


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validator.scheduler.worker",
        description="Fleet worker for the validator's worker pool.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to join")
    parser.add_argument("--reconnect", action="store_true",
                        help="rejoin after the coordinator closes or refuses "
                             "(serves every batch of a sweep on a fixed port)")
    parser.add_argument("--patience", type=float, default=30.0,
                        help="seconds without a reachable coordinator before "
                             "giving up (default 30)")
    parser.add_argument("--fingerprint", default=None,
                        help="override the config fingerprint sent in the "
                             "handshake (testing only)")
    parser.add_argument("--schema", type=int, default=None,
                        help="override the transport schema version sent in "
                             "the handshake (testing only)")
    args = parser.parse_args(argv)
    served = run_worker(args.connect, reconnect=args.reconnect,
                        patience=args.patience, fingerprint=args.fingerprint,
                        schema=args.schema)
    print(f"worker done: served {served} items")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
