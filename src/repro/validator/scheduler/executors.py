"""The execute layer: *how* a planned batch of validation work runs.

The planning layer (:mod:`repro.validator.scheduler.plan`) produces a
deduplicated, content-keyed :class:`~repro.validator.scheduler.plan.WorkPlan`;
an :class:`Executor` turns it into verdicts in the shared
:class:`~repro.validator.cache.ValidationCache`; the settlement layer
(:mod:`repro.validator.scheduler.settle`) reassembles per-function
records.  Because verdicts are content-addressed and settlement replays
the same strategy runners however the items ran, **every worker count
produces byte-identical record signatures** — the pool may only
change where and in what order queries run, never what they decide
(``benchmarks/stepwise_guard.py``'s backend leg enforces this on all
twelve corpora, in-process and pooled).

One backend ships, :class:`Executor`: one priority-ordered dispatch
queue over a persistent pool of single-item workers
(:class:`~repro.validator.scheduler.transport.TcpStealPool`), and
``config.concurrency`` alone decides whether that pool runs.  Each item
is a self-contained, content-keyed query, so no worker gains anything
from running a particular one: the pool holds at most ``concurrency``
items in flight, keyed by tag, and every completion dispatches the
queue's next live item, so a long chain item occupies one worker while
the others drain the queue.  The queue also cancels doomed pairs: a
rejection streams back, releases the rejecting functions' later pairs,
and queued items whose every demander is doomed are dropped as they
reach the head, because no stepwise walk ever reads them.  A worker
death costs one respawn and a requeue of its item at the queue's head;
only an unattributable pool failure degrades the *unfinished
remainder* to in-process execution — completed verdicts are
content-addressed and kept.  With ``concurrency`` of 0 or 1 the same
queue drains in-process, in the same order.  Items travel as the
function's own versions plus callee declarations
(:func:`~repro.validator.scheduler.transport.encode_item`), never as
whole modules.

The pool has one transport, TCP.  By default it starts ``concurrency``
local worker processes joined over loopback; with ``config.steal_listen``
set it starts none and serves the fleet of ``python -m
repro.validator.scheduler.worker`` processes that join it.  Planning,
settlement, cancellation and the supervision logic below cannot tell
the two apart: a worker death, local or remote, walks the same
respawn/requeue/quarantine path.
"""

from __future__ import annotations

import collections
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...analysis.manager import AnalysisManager, CHECKPOINT_FINGERPRINTS
from ...ir.module import Function
from .. import faults
from ..cache import CacheKey, ValidationCache
from ..config import ValidatorConfig
from ..report import FunctionRecord
from ..validate import (UNCACHEABLE_REASONS, ChainOutcome, ValidationResult,
                        quarantined_result, validate, validate_bounded,
                        validate_chain)
from .budget import RequestBudget, admit_work
from .plan import (
    ChainSignature,
    PairProvider,
    WorkPlan,
    chain_amortizes,
    pending_whole_queries,
)
from .settle import settle_chain_results

#: A sharded-chain worker's return value: one (possibly censored) verdict
#: per adjacent pair, the (possibly censored) whole-pair verdict, and the
#: chain graph's work telemetry.
ChainItemResult = Tuple[List[Optional[ValidationResult]],
                        Optional[ValidationResult], Dict[str, int]]


def _validate_item(item: Tuple):
    """Work-item entry point: validate one item (pair or whole chain).

    Runs in pool worker processes and in the in-process loop.  Pair
    items run through :func:`validate_bounded`, so ``config.pair_timeout``
    and the ``"pair"`` fault site apply wherever the item lands; the
    ``"worker"`` site fires only in a worker process.  Chain items share
    one normalization across all their pairs, so per-pair bounds do not
    apply to them.  A chain item carries the versions' content
    fingerprints (the plan's, or None) so the chain build prints no
    version again.
    """
    if item[0] == "chain":
        _, versions, fingerprints, config = item
    else:
        _, before, after, config = item
    if faults.in_worker_process():
        faults.maybe_fire(config.fault_plan, "worker",
                          detail=item_detail(item))
    if item[0] == "chain":
        outcome = validate_chain(versions, config, fingerprints=fingerprints)
        settled, whole = settle_chain_results(outcome, versions, config)
        return settled, whole, outcome.chain_stats
    return validate_bounded(before, after, config)


def item_detail(item: Tuple) -> str:
    """The function name a work item is about (fault-site match detail)."""
    if item[0] == "chain":
        return item[1][0].name
    return item[1].name


def _quarantined_payload(item: Tuple, casualties: int, why: str):
    """A work item's result payload once the supervisor quarantines it."""
    if item[0] == "chain":
        versions = item[1]
        denial = quarantined_result(versions[0].name, casualties, why)
        return [denial] * (len(versions) - 1), denial, {}
    return quarantined_result(item[1].name, casualties, why)


@dataclass
class ExecutionOutcome:
    """What one :meth:`Executor.execute` run put into the cache.

    ``fresh`` holds every key this execution validated (settlement counts
    the first consumption of each as a miss, further ones as hits).  The
    settlement provider appends inline-validated keys to ``fresh`` as it
    discovers them, so ``validated_queries`` snapshots the executor's own
    contribution first.
    """

    fresh: Set[CacheKey] = field(default_factory=set)
    chain_stats_by_signature: Dict[ChainSignature, Dict[str, int]] = field(
        default_factory=dict)
    #: Distinct queries this execution answered (pairs + chain-contributed
    #: pairs + settle-round wholes) — ``shard_stats["distinct_pairs"]``.
    validated_queries: int = 0
    #: Synthetic denials (``"timeout"`` / ``"quarantined"``) keyed like
    #: cache entries but routed *around* the cache: settlement consumes
    #: them exactly like budget denials, and a rerun re-validates them.
    denied: Dict[CacheKey, ValidationResult] = field(default_factory=dict)

    def adopt(self, cache: ValidationCache, key: CacheKey,
              result: ValidationResult) -> None:
        """File one fresh verdict: cacheable ones into the cache, synthetic
        denials into the ``denied`` side channel (never both)."""
        if result.reason in UNCACHEABLE_REASONS:
            self.denied[key] = result
            return
        cache.put(key, result)
        self.fresh.add(key)


class Executor:
    """One dispatch queue over a persistent pool of single-item workers.

    The one backend every strategy runs on.  :meth:`execute` puts the
    plan's items on one queue in priority order — chain items first
    (they cover whole functions and are the longest), then pairs by
    earliest pipeline position (the verdicts most able to cancel later
    work) — and finishes with the stepwise settle round.  Whole and
    bisect plans carry no chain items and every function's only planned
    pair sits at position 0, so for them the queue is the plan's pair
    order and nothing is ever cancelled.

    The in-process loop, the pooled loop and the degraded remainder all
    drain that queue from its head, so pooled and in-process runs
    dispatch in the same order: tag order minus cancelled items.  With
    a pool, at most ``workers`` items are in flight and each completion
    dispatches the next item; which connection runs it is the
    coordinator's business.

    For the stepwise strategy the queue also cancels doomed pairs:
    results stream back one at a time, a rejection releases the demand
    its doomed functions placed on their later pairs, and a queued pair
    whose every demanding function is doomed is dropped when it reaches
    the head (``pairs_skipped``).  Because pairs are
    content-deduplicated across functions, an item is only cancelled
    when *no* live function can still consume it, and the settle round
    plus :func:`~repro.validator.scheduler.settle.settle_plan` reassemble
    records byte-identical to the lazy per-function path — the skipped
    pairs are exactly the ones no record's walk ever reads.

    A worker dying mid-item costs one respawn and a requeue of its item
    (see :meth:`_run_queue`).  Any other pool failure — spawn failure,
    unpicklable payload, a worker reporting an exception — degrades the
    backend and runs every **unfinished** item in-process.  Completed
    verdicts are kept: validation is deterministic and side-effect free
    and each verdict merged into the cache exactly once as it arrived,
    so the in-process remainder can neither lose nor double-count a
    cache query.  With ``workers`` of 0 or 1 no processes are spawned at
    all: the queue drains in-process (still cancelling doomed pairs),
    which is also the deterministic single-worker parity baseline.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._pool = None
        #: Work items that actually ran in a worker process.
        self.pooled_items = 0
        #: Pool failures that degraded execution to in-process.
        self.degraded = 0
        #: Planned pair queries never validated (streaming cancellation).
        self.pairs_skipped = 0
        #: Dead workers (or broken pools) replaced by the supervisor
        #: instead of degrading the backend.
        self.workers_respawned = 0
        #: Poison items isolated after ``max_pair_retries`` casualties.
        self.pairs_quarantined = 0
        #: Items re-executed after a transient failure (requeues).
        self.item_retries = 0
        #: Encoded work-item bytes handed to worker transports.
        self.bytes_dispatched = 0
        #: The closed pool's membership counters (a live pool's are read
        #: from its coordinator).
        self._remote_stats: Dict[str, int] = {}

    def stats(self) -> Dict[str, int]:
        """Per-backend counters for ``report.shard_stats``."""
        return {
            "pooled_items": self.pooled_items,
            "pool_degraded": self.degraded,
            "pairs_skipped": self.pairs_skipped,
            "workers_respawned": self.workers_respawned,
            "pairs_quarantined": self.pairs_quarantined,
            "item_retries": self.item_retries,
            "bytes_dispatched": self.bytes_dispatched,
            **self._membership(),
        }

    def _membership(self) -> Dict[str, int]:
        """Worker join/leave counters: live while the pool runs, then the
        snapshot :meth:`close` took (shard_stats outlives the pool)."""
        if self._pool is None:
            return self._remote_stats
        coordinator = self._pool.coordinator
        return {
            "remote_workers_joined": coordinator.workers_joined,
            "remote_workers_left": coordinator.workers_left,
            "handshakes_rejected": coordinator.rejected,
        }

    def close(self) -> None:
        """Release the worker pool (if one was ever spawned)."""
        if self._pool is not None:
            self._remote_stats = self._membership()
            pool, self._pool = self._pool, None
            try:
                pool.close()
            except Exception:  # pragma: no cover - broken pools may throw
                pass

    def run_batch(self, items: List[Tuple], config: ValidatorConfig) -> List:
        """Run one batch of work items, returning outcomes in order."""
        results: List = [None] * len(items)

        def collect(tag: int, result) -> None:
            results[tag] = result

        self._run_queue(list(enumerate(items)), config, collect)
        return results

    def _run_queue(self, tagged_items: List[Tuple[int, Tuple]],
                   config: ValidatorConfig,
                   on_result: Callable[[int, object], None],
                   is_cancelled: Optional[Callable[[int], bool]] = None,
                   ) -> None:
        """Drain priority-ordered ``(tag, item)`` work, streaming results.

        One dispatch queue feeds every loop: ``on_result`` fires once per
        completed item, in completion order, and ``is_cancelled`` is
        consulted as each item leaves the queue, so items doomed by
        earlier results are dropped without running.  With a pool, at
        most ``workers`` items are in flight, keyed by tag, and each
        completion dispatches the next live item.

        Supervision: a worker death *attributable* to one in-flight item
        (the :class:`~repro.validator.scheduler.transport.BrokenStealPool`
        names its tag) costs one worker respawn and a requeue of that
        item at the queue's head — the batch keeps running on the
        surviving workers.  An item that keeps killing its workers past
        ``config.max_pair_retries`` is quarantined (a synthetic uncached
        ``"quarantined"`` denial) instead of taking the backend down
        with it.  Only *unattributable* failures — queue plumbing, an
        item-level exception a live worker reported, spawn failure —
        degrade the whole backend: the in-flight items rejoin the queue
        in tag order and the rest of it drains in-process.
        """
        queue = collections.deque(tagged_items)

        def next_item() -> Optional[Tuple[int, Tuple]]:
            while queue:
                tag, item = queue.popleft()
                if is_cancelled is None or not is_cancelled(tag):
                    return tag, item
            return None

        def drain_in_process() -> None:
            while True:
                entry = next_item()
                if entry is None:
                    return
                on_result(entry[0], _validate_item(entry[1]))

        if self.workers <= 1 or self.degraded or len(tagged_items) <= 1:
            drain_in_process()
            return
        # Deferred: sockets and asyncio load only when a pool runs.
        from . import transport

        plan = config.fault_plan
        #: tag -> item, for every item a worker holds.
        outstanding: Dict[int, Tuple] = {}
        #: tag -> workers this item has killed (crash or corrupt retry).
        casualties: Dict[int, int] = {}
        # Deep operand chains make pickling recursive; give the parent the
        # same recursion headroom validation itself gets.
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, config.recursion_limit))
        try:
            if self._pool is None:
                self._pool = transport.TcpStealPool(self.workers, config)
            pool = self._pool

            def dispatch() -> None:
                while len(outstanding) < self.workers:
                    entry = next_item()
                    if entry is None:
                        return
                    tag, item = entry
                    outstanding[tag] = item
                    self.bytes_dispatched += pool.send(tag, item)
                    if plan is not None:
                        # The "steal-dispatch" crash site kills the worker
                        # *after* it was handed this item — a parent-side
                        # schedule, so "kill one worker once" means
                        # exactly once across respawns (worker-side
                        # counters reset with each fresh process).
                        spec = faults.should_fire(plan, "steal-dispatch",
                                                  detail=item_detail(item))
                        if spec is not None and spec.action == "crash":
                            pool.kill(tag)

            def absorb_casualty(tag: int, item: Tuple, why: str) -> None:
                """Requeue a worker-killing item, or quarantine it."""
                casualties[tag] = casualties.get(tag, 0) + 1
                if is_cancelled is not None and is_cancelled(tag):
                    return  # nobody will consume it; drop instead
                if casualties[tag] > config.max_pair_retries:
                    self.pairs_quarantined += 1
                    on_result(tag, _quarantined_payload(item, casualties[tag],
                                                        why))
                else:
                    self.item_retries += 1
                    queue.appendleft((tag, item))

            dispatch()
            while outstanding:
                try:
                    tag, ok, payload = pool.receive(outstanding)
                except transport.BrokenStealPool as death:
                    if death.tag not in outstanding:
                        raise  # unattributable: degrade wholesale below
                    item = outstanding.pop(death.tag)
                    pool.respawn()
                    self.workers_respawned += 1
                    absorb_casualty(death.tag, item,
                                    "steal worker died mid-item")
                    dispatch()
                    continue
                if not ok:
                    raise transport.BrokenStealPool(
                        f"steal worker failed: {payload}")
                item = outstanding.pop(tag)
                if plan is not None:
                    spec = faults.maybe_fire(plan, "payload",
                                             detail=item_detail(item))
                    if spec is not None and spec.action == "corrupt":
                        # The transient-failure path in miniature: the
                        # result arrived mangled, so the item retries at
                        # the queue's head (and quarantines if the
                        # corruption follows it).
                        absorb_casualty(tag, item, "corrupted result payload")
                        dispatch()
                        continue
                self.pooled_items += 1
                on_result(tag, payload)
                dispatch()
        except Exception:
            # Spawn failures, unpicklable payloads and unattributable
            # deaths all land here: keep every streamed-back verdict and
            # drain the unfinished remainder in-process in priority order.
            self.degraded += 1
            self.close()
            queue.extendleft(sorted(outstanding.items(), reverse=True))
            drain_in_process()
        finally:
            sys.setrecursionlimit(old_limit)

    def execute(self, plan: WorkPlan, cache: ValidationCache,
                budget: Optional[RequestBudget] = None) -> ExecutionOutcome:
        """Validate the plan on the dispatch queue, then run the settle round.

        With a ``budget`` (the service daemon's per-request hook) only
        the work the budget still admits is queued — chain items first
        (charged per covered pair), then pairs, each charged before it
        runs — undispatched items are cancelled once the deadline
        passes, and the settle round is skipped once the budget is
        exhausted: the denied queries are answered with synthetic budget
        rejections at settlement time, so the affected records salvage
        their validated ``kept_prefix`` instead of failing the whole
        request.
        """
        outcome = ExecutionOutcome()
        config = plan.config
        pending, pending_chains = plan.pending, plan.pending_chains
        if budget is not None:
            _, pending_chains = admit_work({}, pending_chains, budget)
            pending, _ = admit_work(pending, {}, budget)

        # Demand bookkeeping for streaming cancellation: which functions
        # demand each key, at which pipeline positions, and per function
        # the cutoff position past which its walk can no longer reach
        # (the stepwise walk stops at its first rejection, so a rejection
        # at position p releases every demand at positions > p whatever
        # the earlier pairs decide).
        key_positions: Dict[CacheKey, List[Tuple[int, int]]] = {}
        released: List[int] = []
        for function_index, function_plan in enumerate(plan.function_plans()):
            cutoff = len(function_plan.pair_keys)
            for position, key in enumerate(function_plan.pair_keys):
                key_positions.setdefault(key, []).append(
                    (function_index, position))
                if cutoff == len(function_plan.pair_keys):
                    result = cache.peek(key)
                    if result is not None and not result.is_success:
                        cutoff = position + 1
            released.append(cutoff)

        def release(key: CacheKey) -> None:
            for function_index, position in key_positions.get(key, ()):
                if position + 1 < released[function_index]:
                    released[function_index] = position + 1

        def doomed(key: CacheKey) -> bool:
            demanders = key_positions.get(key)
            if not demanders:
                return False
            return all(position >= released[function_index]
                       for function_index, position in demanders)

        tagged: List[Tuple[int, Tuple]] = []
        kinds: List[Tuple] = []
        for signature, (versions, whole_key, fingerprints) in pending_chains.items():
            kinds.append(("chain", signature, whole_key))
            tagged.append((len(tagged), ("chain", versions, fingerprints, config)))
        pair_order = sorted(pending, key=lambda key: min(
            (position for _, position in key_positions.get(key, ())),
            default=0))
        for key in pair_order:
            before, after = pending[key]
            kinds.append(("pair", key))
            tagged.append((len(tagged), ("pair", before, after, config)))

        def handle(tag: int, result) -> None:
            kind = kinds[tag]
            if kind[0] == "chain":
                # Chain items return one settled verdict per adjacent pair
                # (raw rejects beyond the consumed prefix are censored —
                # see settle_chain_results); only verdicts for keys nobody
                # stored yet are adopted, so identical pairs keep a single
                # entry.
                _, signature, whole_key = kind
                settled, whole_result, chain_stats = result
                outcome.chain_stats_by_signature[signature] = chain_stats
                for key, settled_result in zip(signature + (whole_key,),
                                               settled + [whole_result]):
                    if settled_result is None or cache.peek(key) is not None:
                        continue
                    outcome.adopt(cache, key, settled_result)
                    if not settled_result.is_success:
                        release(key)
            else:
                key = kind[1]
                outcome.adopt(cache, key, result)
                if not result.is_success:
                    release(key)

        def is_cancelled(tag: int) -> bool:
            # Wall-clock expiry cancels undispatched items mid-run; the
            # pair cap was already enforced at admission time, so only
            # the deadline axis is consulted here.
            if budget is not None and budget.expired:
                return True
            kind = kinds[tag]
            return kind[0] == "pair" and doomed(kind[1])

        if tagged:
            self._run_queue(tagged, config, handle, is_cancelled)
        if budget is None or not budget.exhausted:
            self._run_settle_round(plan, cache, outcome)
        self.pairs_skipped += sum(1 for key in plan.pending
                                  if key not in outcome.fresh
                                  and key not in outcome.denied)
        outcome.validated_queries = len(outcome.fresh)
        return outcome

    def _run_settle_round(self, plan: WorkPlan, cache: ValidationCache,
                          outcome: ExecutionOutcome) -> None:
        """Stepwise settle round: whole fallbacks of rejected functions."""
        pending_whole = pending_whole_queries(plan, cache)
        if not pending_whole:
            return
        items = [("pair", before, after, plan.config)
                 for before, after in pending_whole.values()]
        results = self.run_batch(items, plan.config)
        for key, result in zip(pending_whole, results):
            outcome.adopt(cache, key, result)


# ---------------------------------------------------------------------------
# Lazy serial providers — the per-function execution path.
# ---------------------------------------------------------------------------

def validate_pair_cached(
    before: Function,
    after: Function,
    config: ValidatorConfig,
    cache: Optional[ValidationCache],
    manager: Optional[AnalysisManager],
    context: str,
) -> Tuple[ValidationResult, bool]:
    """Validate one pair through the optional cache; returns (result, hit).

    ``context`` is the module-context digest of the pair's module, part
    of its cache key.
    """
    if cache is None:
        return validate_bounded(before, after, config, manager=manager), False
    key = cache.key(before, after, config, context)
    cached = cache.get(key, before.name)
    if cached is not None:
        return cached, True
    result = validate_bounded(before, after, config, manager=manager)
    cache.put(key, result)  # put refuses synthetic (timeout) denials
    return result, False


def serial_provider(config: ValidatorConfig, cache: Optional[ValidationCache],
                    manager: Optional[AnalysisManager],
                    context: str) -> PairProvider:
    """The lazy provider: validate on demand through the optional cache."""

    def provider(before: Function, after: Function) -> Tuple[ValidationResult, bool]:
        return validate_pair_cached(before, after, config, cache, manager,
                                    context)

    return provider


def chain_provider(versions: List[Function], config: ValidatorConfig,
                   cache: Optional[ValidationCache],
                   manager: Optional[AnalysisManager],
                   record: FunctionRecord, context: str) -> PairProvider:
    """Answer adjacent-pair queries from ONE chain-shared value graph.

    The chain graph is built (and normalized, once) lazily — on the first
    adjacent-pair query the cache cannot answer — so fully cached
    functions never pay for it, exactly as the per-pair path never
    validates on a hit; and only when enough pairs are uncached to
    amortize translating all k versions (:func:`chain_amortizes`), so a
    warm cache with one modified pipeline pass revalidates the straggler
    pairs in isolation instead of re-paying near-cold cost.  Raw chain
    *accepts* are consumed directly; raw chain *rejects* are consumed
    only when the outcome marks them authoritative (``rejects_trusted``)
    and otherwise re-checked with an isolated per-pair
    :func:`~repro.validator.validate.validate` before being trusted or
    cached, which keeps every consumed verdict identical to the per-pair
    strategy's (an iteration-capped normalization, or a reject that may
    merely reflect the union-scoped observability approximations, is
    never authoritative).  The whole-query fallback ``(original,
    final)`` is answered from the same graph on the same terms; anything
    else falls through to the per-pair path untouched.
    """
    state: Dict[str, ChainOutcome] = {}
    decision: Dict[str, bool] = {}
    fingerprints: Dict[int, str] = {}
    positions = {(id(before), id(after)): index
                 for index, (before, after) in enumerate(zip(versions, versions[1:]))}
    whole_pair = (id(versions[0]), id(versions[-1]))
    fallthrough = serial_provider(config, cache, manager, context)

    def fingerprint(function: Function) -> str:
        # Interior versions serve two pairs (and the worthwhile check
        # peeks every pair), so memoize by identity — the versions list
        # pins the objects alive.  The shared checkpoint table answers
        # first: the planner/snapshot layer already hashed every changed
        # checkpoint, so only the original version (absent from the
        # global table — the caller may mutate it) is hashed here, once.
        memoized = fingerprints.get(id(function))
        if memoized is None:
            memoized = CHECKPOINT_FINGERPRINTS.fingerprint(function)
            fingerprints[id(function)] = memoized
        return memoized

    def pair_key(before: Function, after: Function) -> CacheKey:
        return cache.key_for(fingerprint(before), fingerprint(after), config,
                             context)

    def outcome() -> ChainOutcome:
        if "outcome" not in state:
            # Lazy fallback: on a chain build/normalize failure the
            # outcome comes back empty and every query below validates
            # per-pair on demand — pairs past the stepwise walk's first
            # rejection are then never paid for.
            state["outcome"] = validate_chain(
                versions, config, manager, eager_fallback=False,
                fingerprints=[fingerprint(version) for version in versions])
            record.chain_stats = state["outcome"].chain_stats
        return state["outcome"]

    def chain_worthwhile() -> bool:
        """Is building the chain cheaper than validating the misses alone?

        With a warm cache and only a straggler or two missing (one
        pipeline pass changed since the last sweep), per-pair wins — the
        chain would re-pay near-cold cost for the whole function.
        Without a cache every pair is missing and the chain always wins.
        """
        if cache is None:
            return True
        if "build" not in decision:
            missing = sum(
                1 for left, right in zip(versions, versions[1:])
                if cache.peek(pair_key(left, right)) is None)
            decision["build"] = chain_amortizes(missing, len(versions))
        return decision["build"]

    def provider(before: Function, after: Function) -> Tuple[ValidationResult, bool]:
        position = positions.get((id(before), id(after)))
        is_whole = position is None and (id(before), id(after)) == whole_pair
        if position is None and not is_whole:
            return fallthrough(before, after)
        if is_whole and "outcome" not in state:
            # Every adjacent pair was answered from the cache (or the
            # stragglers validated per-pair), so no chain was built;
            # deciding the whole query per-pair mirrors the batch
            # driver's settle round exactly.
            return fallthrough(before, after)
        key: Optional[CacheKey] = None
        if cache is not None:
            key = pair_key(before, after)
            cached = cache.get(key, before.name)
            if cached is not None:
                return cached, True
        result: Optional[ValidationResult]
        if "outcome" not in state and not chain_worthwhile():
            # Too few uncached pairs to amortize a chain build: answer
            # this straggler in isolation below.
            result = None
        else:
            chain = outcome()
            if chain.fallback:
                result = None  # lazy fallback: validate this query in isolation
            elif is_whole:
                result = chain.whole_result
            else:
                result = chain.pair_results[position]
            if result is not None and not result.is_success and not chain.rejects_trusted:
                # The chain's normalization was cut off by the iteration
                # bound, or a rejecting pair holds a store only its
                # isolated pair graph can prune (root-scoped
                # observability), so this rejection is not authoritative
                # yet.
                result = None
        if result is None:
            result = validate_bounded(before, after, config, manager=manager)
        if cache is not None and key is not None:
            cache.put(key, result)  # put refuses synthetic (timeout) denials
        return result, False

    return provider


__all__ = [
    "ChainItemResult",
    "ExecutionOutcome",
    "Executor",
    "serial_provider",
    "chain_provider",
    "validate_pair_cached",
]
