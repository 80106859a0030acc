"""Deterministic, seedable fault injection for the validator's recovery paths.

Recovery machinery that only runs when hardware misbehaves is machinery
that never runs in CI.  This module makes failure a *scheduled input*: a
:class:`FaultPlan` names sites in the validation pipeline and attaches
frozen :class:`FaultSpec` schedules to them ("crash the worker on the
3rd matching item", "hang pair ``f`` for 2 seconds", "raise ENOSPC on
the first two cache flushes", "corrupt one result payload"), and the
executor/cache/service layers consult the plan at those sites.  Firing
is a pure function of the plan and a per-process visit counter — no
clocks, no randomness — so a seeded chaos run is exactly reproducible
and its records can be byte-compared against the fault-free run
(``benchmarks/chaos_guard.py`` does exactly that in CI).

Sites wired in today:

``"pair"``
    Inside :func:`~repro.validator.validate.validate_bounded`, before
    one pair validation; detail is the function name.  ``hang`` here is
    how a diverging normalization is simulated — it runs *inside* the
    pair watchdog, so ``config.pair_timeout`` preempts it.
``"worker"``
    In a pool worker process, before validating a received item (the
    in-process loop never consults it); detail is the item's function
    name.  ``crash`` here hard-exits the worker process (``os._exit``),
    exercising the supervisor's respawn/requeue/quarantine path.
``"steal-dispatch"``
    In the parent, right after an item is dispatched to a pool worker
    (``crash`` severs that worker's connection before it can answer).
``"payload"``
    In the parent, as a steal result arrives (``corrupt`` replaces it
    with a malformed payload, exercising the per-item retry path).
``"cache-flush"``
    Inside the SQLite proof store's write path (``raise`` with
    ``error="database is locked"`` or ``"ENOSPC"`` exercises the
    locked-retry and degrade-to-memory paths).
``"conn-drop"``
    In the pool's steal coordinator, right after an item is written to
    a worker's connection (any action severs that connection, so the
    leased item surfaces as a worker death → respawn/requeue).
``"conn-delay"``
    In the TCP steal coordinator, as a result frame arrives (``hang``
    delays its delivery by ``seconds``, simulating a congested link;
    ordering and verdicts are unaffected).
``"handshake"``
    In the TCP steal coordinator, while accepting a new worker
    connection (any action rejects the handshake, exercising the
    joiner's retry/give-up path).

The plan and its specs are frozen dataclasses of immutables:
:class:`~repro.validator.config.ValidatorConfig` stays hashable (the
watch layer keys shared revalidators by config) and picklable (work
items carry the config into worker processes, where the same plan keeps
firing on that process's own counters).
"""

from __future__ import annotations

import errno
import os
import signal
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Sites the validator consults a plan at (documented above).
SITES = ("pair", "worker", "steal-dispatch", "payload",
         "cache-flush", "conn-drop", "conn-delay", "handshake")

#: What a firing spec does: ``"crash"`` (kill the worker process, or
#: raise :class:`InjectedCrash` in the parent), ``"hang"`` (sleep for
#: ``seconds``), ``"raise"`` (raise the mapped ``error``) or
#: ``"corrupt"`` (returned to the site, which mangles its payload).
ACTIONS = ("crash", "hang", "raise", "corrupt")

#: Exit code an injected worker crash dies with (distinguishable from a
#: real segfault's negative signal status in the supervisor's logs).
WORKER_CRASH_EXIT = 61


class InjectedFault(RuntimeError):
    """An error manufactured by a fault plan (the generic ``raise`` action)."""


class InjectedCrash(InjectedFault):
    """A parent-side stand-in for a worker death."""


class PairTimeout(BaseException):
    """One pair validation exceeded ``config.pair_timeout``.

    Deliberately *not* an :class:`Exception`: the watchdog raises it
    asynchronously (SIGALRM) inside arbitrary validation code, and no
    ``except Exception`` recovery path deep in graph construction or
    normalization may swallow it — only
    :func:`~repro.validator.validate.validate_bounded` catches it.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: a site, an action, and when it fires.

    The spec keeps its own visit counter (per process): every
    consultation of ``site`` whose detail contains ``match`` counts as
    one visit, and the spec fires on visits ``at .. at + count - 1``
    (``count=0`` fires forever from ``at``).  An empty ``match`` matches
    every detail.
    """

    site: str
    action: str
    match: str = ""
    at: int = 1
    count: int = 1
    seconds: float = 0.0
    error: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} (known: {SITES})")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (known: {ACTIONS})")
        if self.at < 1:
            raise ValueError("at is 1-based: the first matching visit is at=1")
        if self.count < 0:
            raise ValueError("count must be >= 0 (0 = fire forever from at)")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults (hashable, picklable).

    ``seed`` does not affect *firing* (that is the specs' visit
    arithmetic) — it seeds the deterministic jitter of any retry/backoff
    machinery recovering from this plan's faults, so a chaos run's
    timing is reproducible too.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    # -- readable constructors for the common schedules -------------------
    @staticmethod
    def of(*specs: FaultSpec, seed: int = 0) -> "FaultPlan":
        return FaultPlan(specs=tuple(specs), seed=seed)

    @staticmethod
    def crash_worker(match: str = "", at: int = 1, count: int = 1,
                     seed: int = 0) -> "FaultPlan":
        """Kill a steal worker when it receives the matching item."""
        return FaultPlan.of(FaultSpec("worker", "crash", match, at, count),
                            seed=seed)

    @staticmethod
    def hang_pair(match: str, seconds: float, at: int = 1, count: int = 0,
                  seed: int = 0) -> "FaultPlan":
        """Hang the matching pair validation (pair_timeout's test subject)."""
        return FaultPlan.of(
            FaultSpec("pair", "hang", match, at, count, seconds=seconds),
            seed=seed)

    @staticmethod
    def flush_error(error: str, at: int = 1, count: int = 1, seed: int = 0
                    ) -> "FaultPlan":
        """Raise the mapped ``error`` on the matching cache flushes."""
        return FaultPlan.of(
            FaultSpec("cache-flush", "raise", "", at, count, error=error),
            seed=seed)

    @staticmethod
    def corrupt_payload(match: str = "", at: int = 1, count: int = 1,
                        seed: int = 0) -> "FaultPlan":
        """Corrupt the matching steal result payload in flight."""
        return FaultPlan.of(FaultSpec("payload", "corrupt", match, at, count),
                            seed=seed)


# -- firing state -----------------------------------------------------------
#: Per-plan, per-spec visit counters.  Per *process*: a plan pickled into
#: a worker fires on that worker's own visits, which is what makes
#: "crash the worker on its 3rd item" mean the same thing every run.
_VISITS: Dict[FaultPlan, Dict[int, int]] = {}

#: Set in steal-pool worker processes: a ``crash`` there hard-exits the
#: process instead of raising (an exception would be *reported*, not a
#: death, and the supervisor's respawn path would never run).
_IN_WORKER_PROCESS = False


def mark_worker_process() -> None:
    """Flag this process as a pool worker (crash faults hard-exit here)."""
    global _IN_WORKER_PROCESS
    _IN_WORKER_PROCESS = True


def in_worker_process() -> bool:
    """Is this process a pool worker (see :func:`mark_worker_process`)?"""
    return _IN_WORKER_PROCESS


def reset(plan: Optional[FaultPlan] = None) -> None:
    """Forget firing state for ``plan`` (or every plan) — tests and reruns."""
    if plan is None:
        _VISITS.clear()
    else:
        _VISITS.pop(plan, None)


def should_fire(plan: Optional[FaultPlan], site: str, detail: str = ""
                ) -> Optional[FaultSpec]:
    """Count one visit to ``site`` and return the spec that fires, if any.

    Every spec matching (site, detail) advances its own counter even
    when another spec already fired this visit, so schedules stay
    independent of each other.
    """
    if plan is None or not plan.specs:
        return None
    counters = _VISITS.setdefault(plan, {})
    fired: Optional[FaultSpec] = None
    for index, spec in enumerate(plan.specs):
        if spec.site != site:
            continue
        if spec.match and spec.match not in detail:
            continue
        visits = counters.get(index, 0) + 1
        counters[index] = visits
        in_window = visits >= spec.at and (
            spec.count == 0 or visits < spec.at + spec.count)
        if fired is None and in_window:
            fired = spec
    return fired


def make_error(name: str, site: str, detail: str) -> BaseException:
    """Map a spec's ``error`` string to a realistic exception instance."""
    lowered = name.lower()
    if lowered == "enospc":
        return OSError(errno.ENOSPC, f"No space left on device (injected at "
                                     f"{site}: {detail or 'any'})")
    if "lock" in lowered:
        return sqlite3.OperationalError("database is locked")
    if "connection" in lowered:
        return ConnectionResetError(
            f"Connection reset by peer (injected at {site})")
    return InjectedFault(f"{name or 'injected-fault'} at {site}: "
                         f"{detail or 'any'}")


def maybe_fire(plan: Optional[FaultPlan], site: str, detail: str = ""
               ) -> Optional[FaultSpec]:
    """Consult the plan at ``site`` and *apply* the firing spec, if any.

    ``hang`` sleeps (interruptible by the pair watchdog's alarm),
    ``crash`` hard-exits worker processes and raises
    :class:`InjectedCrash` in the parent, ``raise`` raises the mapped
    error, and ``corrupt`` is returned to the caller (only the site
    knows what payload to mangle).
    """
    spec = should_fire(plan, site, detail)
    if spec is None:
        return None
    if spec.action == "hang":
        time.sleep(spec.seconds)
        return spec
    if spec.action == "crash":
        if _IN_WORKER_PROCESS:
            os._exit(WORKER_CRASH_EXIT)
        raise InjectedCrash(f"injected crash at {site}: {detail or 'any'}")
    if spec.action == "raise":
        raise make_error(spec.error, site, detail)
    return spec  # "corrupt": the site mangles its own payload


# -- the pair watchdog ------------------------------------------------------
class watchdog:
    """Context manager bounding a block of work to ``seconds`` wall-clock.

    In a main thread (including worker *processes'* main threads, where
    pair validations actually run under the steal backend) the bound
    is **preemptive**: ``SIGALRM``/``setitimer`` raises
    :class:`PairTimeout` inside the block, interrupting even an injected
    ``hang``'s sleep.  Off the main thread (the service daemon validates
    on ``asyncio.to_thread`` workers) signals are unavailable; the block
    runs to completion and the caller applies the same limit post-hoc
    via :attr:`elapsed` — later, but with the identical verdict.
    ``seconds <= 0`` disables the bound entirely.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.preemptive = False
        self._start = 0.0
        self._old_handler = None

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def __enter__(self) -> "watchdog":
        self._start = time.perf_counter()
        if (self.seconds > 0 and hasattr(signal, "SIGALRM")
                and threading.current_thread() is threading.main_thread()):
            def _expire(signum, frame):
                raise PairTimeout(
                    f"pair validation exceeded {self.seconds:g}s")

            try:
                self._old_handler = signal.signal(signal.SIGALRM, _expire)
                signal.setitimer(signal.ITIMER_REAL, self.seconds)
                self.preemptive = True
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                self._old_handler = None
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.preemptive:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def expired(self) -> bool:
        """Has the block (post-hoc or otherwise) exceeded its bound?"""
        return self.seconds > 0 and self.elapsed >= self.seconds


__all__ = [
    "ACTIONS",
    "SITES",
    "WORKER_CRASH_EXIT",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
    "PairTimeout",
    "in_worker_process",
    "make_error",
    "mark_worker_process",
    "maybe_fire",
    "reset",
    "should_fire",
    "watchdog",
]
