"""Validation as a service: a long-lived daemon around one Revalidator.

The batch drivers answer one corpus sweep and exit; the service keeps
the expensive state — the executor, the proof cache, the
analysis manager and the per-``(label, function)`` incremental chain
state — alive across requests.  A request posts a module (or a corpus
name) plus a pipeline to ``POST /validate`` and streams back one NDJSON
line per settled :class:`~repro.validator.report.FunctionRecord`
followed by a summary line; repeat requests pay only for what changed.

:mod:`~repro.validator.service.daemon`
    The asyncio daemon: hand-rolled HTTP/1.1 over ``asyncio`` streams
    (no third-party dependencies), admission control
    (``max_inflight`` → ``503`` + ``Retry-After``), per-request
    :class:`~repro.validator.scheduler.budget.RequestBudget`\\ s that
    settle partial records instead of dropping requests, a ``/stats``
    endpoint and graceful drain on ``SIGTERM``.
:mod:`~repro.validator.service.client`
    A thin blocking client on :mod:`http.client` — submit modules,
    collect record signatures, read stats, trigger shutdown.

``python -m repro.validator.service`` starts a daemon;
``benchmarks/service_guard.py`` holds it to record parity with
:func:`~repro.validator.driver.validate_module_batch`.
"""

from .client import ServiceBusy, ServiceError, ValidationClient
from .daemon import ValidationService, serve_in_thread

__all__ = [
    "ValidationService",
    "ValidationClient",
    "ServiceBusy",
    "ServiceError",
    "serve_in_thread",
]
