#!/usr/bin/env python3
"""Incremental revalidation: pay only for the pipeline suffix you changed.

A cold stepwise sweep validates every adjacent checkpoint pair of every
function from scratch.  But the common real workload is *re*-validation
after a small change — here, swapping the last two passes of the paper
pipeline.  A long-lived :class:`~repro.validator.watch.Revalidator`
keeps a pass-step memo and a content-keyed proof cache across calls;
the re-run then

* **replays** the unchanged pipeline prefix from the memo — no pass
  runs twice on the same input;
* **adopts** every pair whose two checkpoints are unchanged — its cache
  key is the same, so the plan never schedules it and settlement
  answers it as a hit (``pairs_skipped_unchanged``);
* **executes** only the dirty pairs, through the same plan → execute →
  settle path a cold batch sweep takes.

Records are signature-identical to a cold run either way — CI enforces
it on all twelve corpora (``stepwise_guard.py``'s incremental leg) —
so what changes is only the work, which this example prints side by
side.  The same machinery sits behind the validation daemon and the
polling CLI::

    python -m repro.validator.watch my_module.ll --passes adce gvn dse

Run with::

    python examples/watch_mode.py [scale]
"""

import sys

from repro.bench import BENCHMARKS_BY_NAME, build_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import DEFAULT_CONFIG, Revalidator, llvm_md

BENCHMARK = "gcc"
TWEAKED = PAPER_PIPELINE[:-2] + (PAPER_PIPELINE[-1], PAPER_PIPELINE[-2])


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    print(f"pipeline: {', '.join(PAPER_PIPELINE)}")
    print(f"tweaked:  {', '.join(TWEAKED)}  (corpus {BENCHMARK}, "
          f"scale {scale})\n")

    # The cold oracle: a fresh sweep of the tweaked pipeline.
    cold_module = build_corpus(BENCHMARKS_BY_NAME[BENCHMARK], scale=scale)
    _, cold = llvm_md(cold_module, TWEAKED, DEFAULT_CONFIG,
                      label=BENCHMARK, strategy="stepwise")

    # The incremental path: prime a revalidator with the original
    # pipeline, then revalidate the same module under the tweak.
    revalidator = Revalidator(DEFAULT_CONFIG)
    module = build_corpus(BENCHMARKS_BY_NAME[BENCHMARK], scale=scale)
    revalidator.revalidate(module, PAPER_PIPELINE, label=BENCHMARK)
    _, warm = revalidator.revalidate(module, TWEAKED, label=BENCHMARK)
    revalidator.close()

    identical = [r.signature() for r in cold.records] == \
                [r.signature() for r in warm.records]
    print(f"record parity (verdicts, blame, kept prefixes): "
          f"{'IDENTICAL' if identical else 'DIVERGED (bug!)'}\n")

    cold_totals, warm_totals = cold.engine_totals(), warm.engine_totals()
    for key in ("rule_invocations", "nodes_built", "normalize_runs"):
        cold_value = cold_totals.get(key, 0)
        warm_value = warm_totals.get(key, 0)
        saved = 100.0 * (1.0 - warm_value / cold_value) if cold_value else 0.0
        print(f"  {key:<18} cold={cold_value:>7}  incremental={warm_value:>7}  "
              f"saved {saved:5.1f}%")
    shard = warm.shard_stats or {}
    print(f"\nreuse: {shard.get('pairs_skipped_unchanged', 0)} unchanged pairs "
          f"adopted from the previous plan, "
          f"{shard.get('distinct_pairs', 0)} dirty queries executed, "
          f"{shard.get('functions_fully_cached', 0)} functions settled "
          f"without any fresh work")


if __name__ == "__main__":
    main()
