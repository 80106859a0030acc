"""Validator configuration: rule sets, matcher choice, resource limits.

The configuration exists mostly so the experiments can reproduce the
paper's rule-set ablations: Figure 6 adds rule groups to GVN one at a
time, Figure 8 does the same for SCCP, and Figure 7 compares LICM with no
rules against all rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..vgraph.normalize import ENGINES
from ..vgraph.rules import ALL_RULE_GROUPS
from .faults import FaultPlan

#: Transports the executor's worker pool can move work items over:
#: ``"pipe"`` (in-process ``multiprocessing`` pipes, the historical
#: single-host protocol) or ``"tcp"`` (length-prefixed frames over
#: sockets so workers on other hosts can join the shared queue).  See
#: :mod:`repro.validator.scheduler.transport`.
STEAL_TRANSPORTS = ("pipe", "tcp")

#: ``cache_dir`` prefix naming a coordinator's served proof store
#: (``remote://HOST:PORT``) instead of a local SQLite store.  See
#: :class:`repro.validator.cache.RemoteStore`.
REMOTE_PREFIX = "remote://"

#: Cumulative rule sets used for the GVN ablation (paper Figure 6).
GVN_ABLATION_STEPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("no rules", ()),
    ("+ phi simplification", ("phi",)),
    ("+ constant folding", ("phi", "constfold", "boolean")),
    ("+ load/store simplification", ("phi", "constfold", "boolean", "loadstore")),
    ("+ eta simplification", ("phi", "constfold", "boolean", "loadstore", "eta")),
    ("+ commuting rules", ("phi", "constfold", "boolean", "loadstore", "eta", "commuting")),
)

#: Rule sets used for the SCCP ablation (paper Figure 8).
SCCP_ABLATION_STEPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("no rules", ()),
    ("constant folding", ("constfold", "boolean")),
    ("+ phi simplification", ("constfold", "boolean", "phi")),
    ("all rules", tuple(ALL_RULE_GROUPS)),
)

#: Rule sets used for the LICM ablation (paper Figure 7).
LICM_ABLATION_STEPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("no rules", ()),
    ("all rules", tuple(ALL_RULE_GROUPS)),
)


@dataclass(frozen=True)
class ValidatorConfig:
    """Settings for one validation run.

    Attributes
    ----------
    rule_groups:
        Normalization rule groups to enable (default: all of them).
    matcher:
        Cycle-matching strategy: ``"simple"``, ``"partition"`` or
        ``"combined"`` (default, as in the paper §5.4).
    max_iterations:
        Bound on normalization rounds.
    recursion_limit:
        Python recursion limit installed while building value graphs
        (symbolic evaluation is recursive over the SSA def-use chains).
    engine:
        Normalization engine: ``"worklist"`` (incremental, the default)
        or ``"fullscan"`` (the original re-scan-everything loop, kept as
        a baseline for parity tests and benchmarks).
    concurrency:
        The backend selector: how many worker processes the
        :class:`~repro.validator.scheduler.executors.Executor` pool
        runs.  ``0`` or ``1`` (must be ``>= 0``) validates in-process:
        ``llvm_md`` takes its lazy per-function path and the batch
        driver runs the executor's scheduling loop in-process.  Above
        ``1``, ``llvm_md`` delegates to
        :func:`repro.validator.driver.validate_module_batch`, whose
        executor spawns that many workers pulling content-keyed items
        from per-worker deques (LIFO-local/FIFO-steal, so long chain
        items stop straggling behind an idle pool; a rejection streams
        back and cancels the doomed later pairs of its function).  Every
        worker count produces byte-identical
        :meth:`~repro.validator.report.FunctionRecord.signature`\\ s —
        ``benchmarks/stepwise_guard.py``'s backend leg enforces it — so
        the field can never affect a verdict and is *not* part of the
        cache key.
    cache_dir:
        Optional persistence location for the
        :class:`~repro.validator.cache.ValidationCache`: a directory
        (holding a SQLite proof store), a ``.sqlite`` / ``.db`` file, or
        ``remote://HOST:PORT`` to consult the served proof store of a
        running steal coordinator.  When set and no explicit cache is
        passed, the drivers open a persistent cache there (faulting
        previously proved pairs in lazily) and save it back after the
        run, so repeated corpus sweeps and CI re-runs skip every pair
        proved before.  ``cache_dir`` never affects a verdict, so it is
        *not* part of the cache key.
    analysis_cache_size:
        LRU bound for driver-created
        :class:`~repro.analysis.manager.AnalysisManager` instances and
        for the incremental revalidator's
        :class:`~repro.transforms.pass_manager.PassStepMemo` — both memos
        a long-lived driver keeps.  ``0`` keeps them unbounded (the
        historical behavior); a positive value caps how many analysed
        function versions and memoized pipeline steps stay pinned in
        memory, which long-lived services need.  Eviction never changes a
        verdict, only the ``analysis_stats`` and ``pass_steps_*``
        counters.
    chain_graphs:
        Answer the stepwise strategy's adjacent-pair queries from one
        chain-shared value graph per function (build every pipeline
        checkpoint once, normalize once) instead of one fresh two-version
        graph per pair.  On by default; verdicts, blame, kept prefixes
        and record signatures are identical either way (the per-pair path
        remains both the fallback and the parity oracle — see
        ``benchmarks/stepwise_guard.py``'s chain leg), so the flag is
        *not* part of the cache key.
    cache_max_bytes:
        Size budget for the *persistent*
        :class:`~repro.validator.cache.ValidationCache` backend.  ``0``
        (the default) keeps the file unbounded; a positive value makes
        :meth:`~repro.validator.cache.ValidationCache.save` evict
        least-recently-hit entries until the stored entries fit the
        budget (the ``disk_evicted`` counter reports how many).  Like
        ``cache_dir`` it can never affect a verdict, so it is not part of
        the cache key.
    service_port:
        TCP port the validation daemon
        (:mod:`repro.validator.service`) listens on.  ``0`` asks the OS
        for an ephemeral port (the daemon prints the bound address).
        Only the service reads it; it never affects a verdict.
    max_inflight:
        Admission-control bound for the daemon: how many validation
        requests may be admitted (queued or running) at once.  Requests
        beyond the bound are rejected with ``503`` and a ``Retry-After``
        hint instead of queueing without limit.  ``0`` rejects every
        request — useful for drain/maintenance windows and for testing
        the rejection path deterministically.
    request_timeout:
        Default per-request wall-clock budget (seconds) the daemon
        applies when a request does not set its own.  ``0`` (the
        default) leaves requests unbounded.  A request that exceeds its
        budget is not dropped: fresh validation stops, remaining
        verdicts are denied with reason ``"budget-exhausted"``, and each
        record settles with its validated ``kept_prefix`` salvaged (see
        :mod:`repro.validator.scheduler.budget`).
    pair_timeout:
        Wall-clock bound (seconds) on one pair validation.  ``0`` (the
        default) leaves pairs unbounded.  A pair exceeding the bound is
        denied with the uncached reason ``"timeout"`` — the record keeps
        its validated ``kept_prefix``, other pairs are unaffected, and
        the verdict never enters the proof cache (a rerun with a larger
        bound must re-validate).  Enforced preemptively (``SIGALRM``)
        in main threads, including steal worker processes; post-hoc
        elsewhere.  A resource limit like the budget knobs, so *not*
        part of the cache key.
    max_pair_retries:
        How many times a pair that crashes or times out its worker is
        retried on another worker before the supervisor quarantines it
        (synthetic uncached ``"quarantined"`` denial, surfaced in
        ``shard_stats``/``/stats``) instead of letting one poison pair
        kill the whole backend.  Not part of the cache key.
    fault_plan:
        Optional :class:`~repro.validator.faults.FaultPlan` injecting
        deterministic faults (worker crashes, pair hangs, flush errors,
        payload corruption, connection drops) at named pipeline sites —
        the test harness for all of the recovery machinery above.
        ``None`` (the default) injects nothing and costs nothing.
        Never part of the cache key: a faulted run's *cached* verdicts
        must be byte-identical to the fault-free run's.
    steal_transport:
        Wire protocol for the executor's worker pool: ``"pipe"`` (the
        default local ``multiprocessing`` pipes) or ``"tcp"``
        (length-prefixed pickle frames over sockets — the driver hosts
        a :class:`~repro.validator.scheduler.remote.StealCoordinator`
        and remote ``python -m repro.validator.scheduler.worker``
        processes join it dynamically).  ``"tcp"`` requires
        ``concurrency > 1``: below that no pool runs, so no socket
        would ever be bound.  Both transports produce byte-identical
        record signatures (``benchmarks/remote_steal_guard.py``
        enforces it), so like ``concurrency`` it is *not* part of the
        cache key.
    steal_listen:
        ``HOST:PORT`` the TCP steal coordinator binds (only meaningful
        with ``steal_transport="tcp"``).  ``None`` binds a loopback
        ephemeral port; a fixed port lets ``--reconnect`` workers serve
        every batch of a sweep.  Contradicts a ``remote://`` ``cache_dir``
        — one process either hosts the served proof store or consults
        one.  Never part of the cache key.
    """

    rule_groups: Tuple[str, ...] = tuple(ALL_RULE_GROUPS)
    matcher: str = "combined"
    max_iterations: int = 25
    recursion_limit: int = 50_000
    engine: str = "worklist"
    concurrency: int = 0
    cache_dir: Optional[str] = None
    analysis_cache_size: int = 0
    chain_graphs: bool = True
    cache_max_bytes: int = 0
    service_port: int = 8037
    max_inflight: int = 4
    request_timeout: float = 0.0
    pair_timeout: float = 0.0
    max_pair_retries: int = 2
    fault_plan: Optional[FaultPlan] = None
    steal_transport: str = "pipe"
    steal_listen: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r} (known: {ENGINES})")
        if self.concurrency < 0:
            raise ValueError(
                f"concurrency must be >= 0 (got {self.concurrency}); "
                f"0 and 1 validate in-process")
        if self.analysis_cache_size < 0:
            raise ValueError("analysis_cache_size must be >= 0 (0 = unbounded)")
        if self.cache_max_bytes < 0:
            raise ValueError("cache_max_bytes must be >= 0 (0 = unbounded)")
        if not 0 <= self.service_port <= 65535:
            raise ValueError(
                f"service_port must be a TCP port in [0, 65535] "
                f"(got {self.service_port}); 0 picks an ephemeral port")
        if self.max_inflight < 0:
            raise ValueError(
                "max_inflight must be >= 0 (0 = reject every request)")
        if self.request_timeout < 0:
            raise ValueError("request_timeout must be >= 0 (0 = unbounded)")
        if self.pair_timeout < 0:
            raise ValueError("pair_timeout must be >= 0 (0 = unbounded)")
        if self.max_pair_retries < 0:
            raise ValueError(
                "max_pair_retries must be >= 0 (0 = quarantine on first kill)")
        if self.steal_transport not in STEAL_TRANSPORTS:
            raise ValueError(
                f"unknown steal transport {self.steal_transport!r} "
                f"(known: {STEAL_TRANSPORTS})")
        if self.steal_transport == "tcp" and self.concurrency <= 1:
            raise ValueError(
                f"steal_transport='tcp' needs concurrency > 1 "
                f"(got concurrency={self.concurrency}); below that the "
                f"executor runs in-process and no worker pool would listen")
        if self.steal_listen is not None and self.steal_transport != "tcp":
            raise ValueError(
                f"steal_listen={self.steal_listen!r} needs "
                f"steal_transport='tcp' (the pipe transport never binds a "
                f"socket)")
        if self.steal_listen is not None and ":" not in self.steal_listen:
            raise ValueError(
                f"steal_listen must be 'HOST:PORT' (got {self.steal_listen!r})")
        if self.steal_listen is not None \
                and str(self.cache_dir).startswith(REMOTE_PREFIX):
            raise ValueError(
                f"cache_dir={self.cache_dir!r} contradicts "
                f"steal_listen={self.steal_listen!r}: a process either hosts "
                f"the served proof store or consults one, not both")

    def with_rules(self, rule_groups) -> "ValidatorConfig":
        """A copy of this configuration with different rule groups."""
        return replace(self, rule_groups=tuple(rule_groups))

    def with_engine(self, engine: str) -> "ValidatorConfig":
        """A copy of this configuration with a different normalization engine."""
        return replace(self, engine=engine)

    def with_cache_dir(self, cache_dir: Optional[str]) -> "ValidatorConfig":
        """A copy of this configuration with a different persistent cache dir."""
        return replace(self, cache_dir=cache_dir)


#: The default configuration (all rules, combined matcher).
DEFAULT_CONFIG = ValidatorConfig()

__all__ = [
    "ValidatorConfig",
    "DEFAULT_CONFIG",
    "STEAL_TRANSPORTS",
    "REMOTE_PREFIX",
    "GVN_ABLATION_STEPS",
    "SCCP_ABLATION_STEPS",
    "LICM_ABLATION_STEPS",
]
