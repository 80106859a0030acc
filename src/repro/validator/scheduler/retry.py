"""Shared bounded-retry policy with deterministic exponential backoff.

Transient failures — a ``database is locked`` flush, a busy daemon's
503 — should cost a short, bounded pause, not a wholesale
degradation; but *persistent* failures must still hit the caller's
fallback (the memory-tier cache, an error to the client) after a known number of
attempts.  Everything that retries in the validator routes through
:func:`retry_call` with a frozen :class:`RetryPolicy`, so the retry
budget and backoff shape live in one place and chaos runs stay
reproducible: jitter comes from ``random.Random(seed)``, never from
wall-clock entropy.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts, and how long to wait between them.

    ``max_attempts`` counts *total* attempts (1 = no retries).  Delay
    before retry ``n`` (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)`` scaled by a
    seeded jitter factor in ``[1 - jitter, 1 + jitter]``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff(self, seed: int = 0) -> Iterator[float]:
        """Yield the (deterministic) delay before each retry."""
        # Numeric tuple hashing is deterministic (PYTHONHASHSEED only
        # randomizes str/bytes), and random.Random needs a scalar seed.
        rng = random.Random(hash((seed, self.max_attempts, self.base_delay)))
        delay = self.base_delay
        while True:
            scale = 1.0
            if self.jitter:
                scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield min(delay, self.max_delay) * scale
            delay *= self.multiplier


#: ``database is locked`` on a sqlite flush: writers back off briefly —
#: the lock holder is another flush, gone within milliseconds.
LOCKED_FLUSH_RETRY = RetryPolicy(max_attempts=4, base_delay=0.02,
                                 max_delay=0.2)


def retry_call(
    fn: Callable[[], T],
    *,
    policy: Optional[RetryPolicy] = None,
    retry_if: Optional[Callable[[BaseException], bool]] = None,
    seed: int = 0,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` under ``policy``, re-raising when retries are spent.

    ``retry_if`` filters which exceptions are transient (default: any
    ``Exception``; ``BaseException``s like timeouts always propagate).
    ``on_retry(attempt, error)`` observes each scheduled retry
    (counters, logs).
    """
    policy = policy or RetryPolicy()
    delays = policy.backoff(seed)
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except Exception as error:
            if attempt >= policy.max_attempts:
                raise
            if retry_if is not None and not retry_if(error):
                raise
            if on_retry is not None:
                on_retry(attempt, error)
            sleep(next(delays))
    raise AssertionError("unreachable")  # pragma: no cover


__all__ = ["LOCKED_FLUSH_RETRY", "RetryPolicy", "retry_call"]
