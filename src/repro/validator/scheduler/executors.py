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

One backend ships, :class:`Executor`: work stealing over a persistent
pool of single-item workers (:mod:`repro.validator.scheduler.steal`),
and ``config.concurrency`` alone decides whether that pool runs.  The
priority-ordered item list is dealt into per-worker deques; a worker
pops its own deque LIFO (its next planned item) and, when empty, steals
FIFO from the most loaded sibling (that worker's farthest-future item),
so a long chain item occupies one worker while the others drain the
queue instead of idling behind a fixed shard boundary.  The queue also
cancels doomed pairs: a rejection streams back, releases the rejecting
functions' later pairs, and undispatched items whose every demander is
doomed are dropped from the deques, because no stepwise walk ever reads
them.  A worker death costs one respawn and a requeue of its item; only
an unattributable pool failure degrades the *unfinished remainder* to
in-process execution — completed verdicts are content-addressed and
kept.  With ``concurrency`` of 0 or 1 the same scheduling loop runs
in-process, with the same schedule.  Items travel as the function's own
versions plus callee declarations
(:func:`~repro.validator.scheduler.steal.encode_item`), never as whole
modules.

The cross-host half of the ROADMAP's multi-host item ships behind the
same seam: ``config.steal_transport="tcp"`` swaps the pool's
in-process pipes for :class:`~repro.validator.scheduler.transport.TcpStealPool`
— a coordinator socket remote ``python -m
repro.validator.scheduler.worker`` processes join dynamically — without
touching planning, settlement, cancellation or the supervision logic
below (the pool contract is identical, so a remote worker death walks
the same respawn/requeue/quarantine path a local one does).
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
from . import steal

#: A sharded-chain worker's return value: one (possibly censored) verdict
#: per adjacent pair, the (possibly censored) whole-pair verdict, and the
#: chain graph's work telemetry.
ChainItemResult = Tuple[List[Optional[ValidationResult]],
                        Optional[ValidationResult], Dict[str, int]]


def _validate_item(item: Tuple):
    """Work-item entry point: validate one item (pair or whole chain).

    Runs in steal worker processes and in the in-process scheduling
    loop.  Pair items run through :func:`validate_bounded`, so
    ``config.pair_timeout`` and the ``"pair"`` fault site apply wherever
    the item lands — in-process or steal worker;
    chain items share one normalization across all their pairs, so
    per-pair bounds do not apply to them.
    """
    if item[0] == "chain":
        _, versions, config = item
        outcome = validate_chain(versions, config)
        settled, whole = settle_chain_results(outcome, versions, config)
        return settled, whole, outcome.chain_stats
    _, before, after, config = item
    return validate_bounded(before, after, config)


def item_detail(item: Tuple) -> str:
    """The function name a work item is about (fault-site match detail)."""
    if item[0] == "chain":
        return item[1][0].name
    return item[1].name


def _quarantined_payload(item: Tuple, casualties: int, why: str):
    """A work item's result payload once the supervisor quarantines it."""
    if item[0] == "chain":
        _, versions, _config = item
        denial = quarantined_result(versions[0].name, casualties, why)
        return [denial] * (len(versions) - 1), denial, {}
    return quarantined_result(item[1].name, casualties, why)


@dataclass
class ExecutionOutcome:
    """What one :meth:`Executor.execute` run put into the cache.

    ``fresh`` holds every key this execution validated (settlement counts
    the first consumption of each as a miss, further ones as hits);
    ``chain_fresh`` the subset contributed by chain items.  The
    settlement provider appends inline-validated keys to ``fresh`` as it
    discovers them, so ``validated_queries`` snapshots the executor's own
    contribution first.
    """

    fresh: Set[CacheKey] = field(default_factory=set)
    chain_fresh: Set[CacheKey] = field(default_factory=set)
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
              result: ValidationResult, chain: bool = False) -> None:
        """File one fresh verdict: cacheable ones into the cache, synthetic
        denials into the ``denied`` side channel (never both)."""
        if result.reason in UNCACHEABLE_REASONS:
            self.denied[key] = result
            return
        cache.put(key, result)
        self.fresh.add(key)
        if chain:
            self.chain_fresh.add(key)


class Executor:
    """Work stealing over a persistent pool of single-item workers.

    The one backend every strategy runs on.  :meth:`execute` puts the
    plan's items on one shared queue in priority order — chain items
    first (they cover whole functions and are the longest), then pairs
    by earliest pipeline position (the verdicts most able to cancel
    later work) — and finishes with the stepwise settle round.  Whole
    and bisect plans carry no chain items and every function's only
    planned pair sits at position 0, so for them the queue is the plan's
    pair order and nothing is ever cancelled.

    Items are dealt into per-worker deques as contiguous runs of the
    priority order.  Each worker is fed one item at a time: on completion
    it pops the next item off its own deque's top (**LIFO-local** — the
    next item in its planned run), and an empty worker steals from the
    *bottom* of the most loaded sibling's deque (**FIFO-steal** — the
    victim's farthest-future item, the classic stealing discipline that
    minimizes contention on what the owner touches next).  A long chain
    item therefore occupies exactly one worker while every other item
    migrates to idle workers, instead of stalling a fixed shard.

    For the stepwise strategy the shared queue also cancels doomed
    pairs: results stream back one at a time, a rejection releases the
    demand its doomed functions placed on their later pairs, and an
    undispatched pair whose every demanding function is doomed is
    dropped from the deques (``pairs_skipped``).  Because pairs are
    content-deduplicated across functions, an item is only cancelled
    when *no* live function can still consume it, and the settle round
    plus :func:`~repro.validator.scheduler.settle.settle_plan` reassemble
    records byte-identical to the lazy per-function path — the skipped
    pairs are exactly the ones no record's walk ever reads.

    A worker dying mid-item costs one respawn and a requeue of its item
    (see :meth:`_run_stealing`).  Any other pool failure — spawn
    failure, unpicklable payload, a worker reporting an exception —
    degrades the backend and runs every **unfinished** item in-process.
    Completed verdicts are kept: validation is deterministic and side-effect
    free and each verdict merged into the cache exactly once as it
    arrived, so the in-process remainder can neither lose nor
    double-count a cache query.  With ``workers`` of 0 or 1 no processes
    are spawned at all: the scheduling loop runs in-process in priority
    order (still cancelling doomed pairs), which is also the
    deterministic single-worker parity baseline.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._pool = None
        #: Work items handed to this backend (including degraded ones).
        self.items_run = 0
        #: Work items that actually ran in a worker process.
        self.pooled_items = 0
        #: Scheduling rounds run (the queue, then the settle round).
        self.batches = 0
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
        #: Items a worker took from a sibling's deque.
        self.items_stolen = 0
        #: Times an idle worker looked for work beyond its own deque
        #: (successful or not).
        self.steal_attempts = 0
        #: Encoded work-item bytes handed to worker transports.
        self.bytes_dispatched = 0
        #: TCP-transport membership counters, snapshotted at close.
        self._remote_stats: Dict[str, int] = {}

    def stats(self) -> Dict[str, int]:
        """Per-backend counters for ``report.shard_stats``."""
        return {
            "items_run": self.items_run,
            "pooled_items": self.pooled_items,
            "batches": self.batches,
            "pool_degraded": self.degraded,
            "pairs_skipped": self.pairs_skipped,
            "workers_respawned": self.workers_respawned,
            "pairs_quarantined": self.pairs_quarantined,
            "item_retries": self.item_retries,
            "items_stolen": self.items_stolen,
            "steal_attempts": self.steal_attempts,
            "bytes_dispatched": self.bytes_dispatched,
            **self._remote_stats,
        }

    def close(self) -> None:
        """Release the worker pool (if one was ever spawned)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            coordinator = getattr(pool, "coordinator", None)
            if coordinator is not None:
                # Snapshot the membership counters before the server dies
                # — shard_stats outlives the per-batch coordinator.
                self._remote_stats = {
                    "remote_workers_joined": coordinator.workers_joined,
                    "remote_workers_left": coordinator.workers_left,
                    "handshakes_rejected": coordinator.rejected,
                }
            try:
                pool.close()
            except Exception:  # pragma: no cover - broken pools may throw
                pass

    def _make_pool(self, config: ValidatorConfig):
        """Build the transport `config.steal_transport` selects."""
        if config.steal_transport == "tcp":
            from . import transport
            return transport.TcpStealPool(self.workers, config)
        return steal.StealPool(self.workers)

    def run_batch(self, items: List[Tuple], config: ValidatorConfig) -> List:
        """Run one batch of work items, returning outcomes in order."""
        results: List = [None] * len(items)

        def collect(tag: int, result) -> None:
            results[tag] = result

        self._run_stealing(list(enumerate(items)), config, collect)
        return results

    def _run_stealing(self, tagged_items: List[Tuple[int, Tuple]],
                      config: ValidatorConfig,
                      on_result: Callable[[int, object], None],
                      is_cancelled: Optional[Callable[[int], bool]] = None,
                      ) -> None:
        """Schedule priority-ordered ``(tag, item)`` work, streaming results.

        ``on_result`` fires once per completed item, in completion order;
        ``is_cancelled`` is consulted at every dispatch so items doomed
        by earlier results are dropped without running.

        Supervision: a worker death *attributable* to one in-flight item
        (the :class:`~repro.validator.scheduler.steal.BrokenStealPool`
        names the worker) costs one worker respawn and a requeue of that
        item — the batch keeps running on the surviving workers.  An
        item that keeps killing its workers past
        ``config.max_pair_retries`` is quarantined (a synthetic uncached
        ``"quarantined"`` denial) instead of taking the backend down
        with it.  Only *unattributable* failures — queue plumbing, an
        item-level exception a live worker reported, spawn failure —
        still degrade the whole backend to in-process execution.
        """
        self.batches += 1
        if self.workers <= 1 or self.degraded or len(tagged_items) <= 1:
            for tag, item in tagged_items:
                if is_cancelled is not None and is_cancelled(tag):
                    continue
                self.items_run += 1
                on_result(tag, _validate_item(item))
            return
        done: Set[int] = set()
        plan = config.fault_plan
        #: tag -> workers this item has killed (crash or corrupt retry).
        casualties: Dict[int, int] = {}
        # Deep operand chains make pickling recursive; give the parent the
        # same recursion headroom validation itself gets.
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, config.recursion_limit))
        try:
            if self._pool is None:
                self._pool = self._make_pool(config)
            pool = self._pool
            # Contiguous runs of the priority order, reversed so the
            # deque's right end (the owner's LIFO "top") holds the run's
            # first item and its left end (the steal side) the last.
            chunk_size = -(-len(tagged_items) // self.workers)
            deques = [collections.deque(reversed(tagged_items[start:start + chunk_size]))
                      for start in range(0, len(tagged_items), chunk_size)]
            deques += [collections.deque()
                       for _ in range(self.workers - len(deques))]

            def next_item(worker_id: int) -> Optional[Tuple[int, Tuple]]:
                while True:
                    if deques[worker_id]:
                        tag, item = deques[worker_id].pop()
                    else:
                        self.steal_attempts += 1
                        victim = max(range(self.workers),
                                     key=lambda v: len(deques[v]))
                        if not deques[victim]:
                            return None  # nothing left anywhere: go idle
                        tag, item = deques[victim].popleft()
                        self.items_stolen += 1
                    if is_cancelled is not None and is_cancelled(tag):
                        continue
                    return tag, item

            outstanding: Dict[int, Tuple[int, Tuple]] = {}

            def dispatch_to(worker_id: int) -> None:
                dispatch = next_item(worker_id)
                if dispatch is None:
                    return
                self.bytes_dispatched += pool.send(
                    worker_id, dispatch[0], dispatch[1])
                outstanding[worker_id] = dispatch
                if plan is not None:
                    # The "steal-dispatch" crash site kills the worker
                    # *after* it was handed this item — a parent-side
                    # schedule, so "kill one worker once" means exactly
                    # once across respawns (worker-side counters reset
                    # with each fresh process).
                    spec = faults.should_fire(plan, "steal-dispatch",
                                              detail=item_detail(dispatch[1]))
                    if spec is not None and spec.action == "crash":
                        kill = getattr(pool, "kill_worker", None)
                        if kill is not None:
                            kill(worker_id)

            def absorb_casualty(worker_id: int, tag: int, item: Tuple,
                                why: str) -> None:
                """Requeue a worker-killing item, or quarantine it."""
                casualties[tag] = casualties.get(tag, 0) + 1
                if is_cancelled is not None and is_cancelled(tag):
                    return  # nobody will consume it; drop instead
                if casualties[tag] > config.max_pair_retries:
                    self.pairs_quarantined += 1
                    done.add(tag)
                    self.items_run += 1
                    on_result(tag, _quarantined_payload(item, casualties[tag],
                                                        why))
                else:
                    self.item_retries += 1
                    deques[worker_id].append((tag, item))

            for worker_id in range(self.workers):
                dispatch_to(worker_id)
            while outstanding:
                try:
                    worker_id, tag, ok, payload = pool.receive(outstanding)
                except steal.BrokenStealPool as death:
                    hurt = getattr(death, "worker_id", None)
                    respawn = getattr(pool, "respawn", None)
                    if hurt is None or respawn is None \
                            or hurt not in outstanding:
                        raise  # unattributable: degrade wholesale below
                    lost_tag, lost_item = outstanding.pop(hurt)
                    respawn(hurt)
                    self.workers_respawned += 1
                    absorb_casualty(hurt, lost_tag, lost_item,
                                    f"steal worker {hurt} died mid-item")
                    dispatch_to(hurt)
                    continue
                dispatched = outstanding.pop(worker_id, None)
                if ok and dispatched is not None and plan is not None:
                    spec = faults.maybe_fire(plan, "payload",
                                             detail=item_detail(dispatched[1]))
                    if spec is not None and spec.action == "corrupt":
                        # The transient-failure path in miniature: the
                        # result arrived mangled, so the item retries on
                        # the worker's own deque (and quarantines if the
                        # corruption follows it).
                        absorb_casualty(worker_id, dispatched[0],
                                        dispatched[1],
                                        "corrupted result payload")
                        dispatch_to(worker_id)
                        continue
                if not ok:
                    raise steal.BrokenStealPool(
                        f"steal worker {worker_id} failed: {payload}")
                done.add(tag)
                self.items_run += 1
                self.pooled_items += 1
                on_result(tag, payload)
                dispatch_to(worker_id)
        except Exception:
            # Spawn failures, unpicklable payloads and unattributable
            # deaths all land here: keep every streamed-back verdict and
            # run the unfinished remainder serially in priority order.
            self.degraded += 1
            self.close()
            for tag, item in tagged_items:
                if tag in done:
                    continue
                if is_cancelled is not None and is_cancelled(tag):
                    continue
                self.items_run += 1
                on_result(tag, _validate_item(item))
        finally:
            sys.setrecursionlimit(old_limit)

    def execute(self, plan: WorkPlan, cache: ValidationCache,
                budget: Optional[RequestBudget] = None) -> ExecutionOutcome:
        """Validate the plan on the shared queue, then run the settle round.

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
        for signature, (versions, whole_key) in pending_chains.items():
            kinds.append(("chain", signature, whole_key))
            tagged.append((len(tagged), ("chain", versions, config)))
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
                    outcome.adopt(cache, key, settled_result, chain=True)
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
            self._run_stealing(tagged, config, handle, is_cancelled)
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
) -> Tuple[ValidationResult, bool]:
    """Validate one pair through the optional cache; returns (result, hit)."""
    if cache is None:
        return validate_bounded(before, after, config, manager=manager), False
    key = cache.key(before, after, config)
    cached = cache.get(key, before.name)
    if cached is not None:
        return cached, True
    result = validate_bounded(before, after, config, manager=manager)
    cache.put(key, result)  # put refuses synthetic (timeout) denials
    return result, False


def serial_provider(config: ValidatorConfig, cache: Optional[ValidationCache],
                    manager: Optional[AnalysisManager]) -> PairProvider:
    """The lazy provider: validate on demand through the optional cache."""

    def provider(before: Function, after: Function) -> Tuple[ValidationResult, bool]:
        return validate_pair_cached(before, after, config, cache, manager)

    return provider


def chain_provider(versions: List[Function], config: ValidatorConfig,
                   cache: Optional[ValidationCache],
                   manager: Optional[AnalysisManager],
                   record: FunctionRecord) -> PairProvider:
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
    fallthrough = serial_provider(config, cache, manager)

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
        return cache.key_for(fingerprint(before), fingerprint(after), config)

    def outcome() -> ChainOutcome:
        if "outcome" not in state:
            # Lazy fallback: on a chain build/normalize failure the
            # outcome comes back empty and every query below validates
            # per-pair on demand — pairs past the stepwise walk's first
            # rejection are then never paid for.
            state["outcome"] = validate_chain(versions, config, manager,
                                              eager_fallback=False)
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
