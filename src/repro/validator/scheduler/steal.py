"""Process plumbing for the work-stealing executor's pool.

:class:`StealPool` owns a persistent set of worker processes, each fed
**one item at a time**: the parent keeps per-worker deques of pending
work (see :class:`~repro.validator.scheduler.executors.Executor`)
and dispatches the next item the moment a worker reports a result, so a
long chain item occupies exactly one worker while the others drain the
rest of the queue — unlike fixed ``Pool.map`` sharding, where the chunk
behind a straggler sits idle.  Single-item dispatch is also what lets
doomed items be *cancelled*: an undispached item is just a deque entry
the parent can drop.

Work items are encoded in the parent inside :meth:`StealPool.send`, so
an unpicklable payload raises synchronously where the executor can catch
it and degrade to serial (a queue's background feeder thread would
otherwise swallow the error and hang the run).  :meth:`StealPool.receive`
polls worker liveness while waiting, so a worker that dies mid-item
raises :class:`BrokenStealPool` instead of blocking forever.  When the
death is *attributable* (the exception names which worker died holding
which item), the executor's supervisor can :meth:`respawn` just that
worker and requeue the item instead of degrading the whole backend to
serial; an unattributable break still degrades wholesale.

Items carry callee *declarations*, not whole modules.  The validator
reads only a callee's name and its ``readonly``/``readnone``
attributes, yet a plain pickle of one version drags in every function
of its module — through ``Call`` operands and ``Function.parent`` —
bodies included.  :func:`encode_item`, shared by this pool and the TCP
transport, pickles the item's own versions in full and every other
:class:`~repro.ir.module.Function` it reaches as name, signature,
argument names and attributes, rebuilt worker-side by
:func:`_declaration`.  Verdicts cannot change: no callee body is ever
translated, and a self-recursive call still resolves to the version
object itself.
"""

from __future__ import annotations

import io
import multiprocessing
import pickle
import queue
from typing import Dict, Optional, Sequence, Tuple

from ...ir.module import Function


class BrokenStealPool(RuntimeError):
    """A steal worker died or misbehaved.

    ``worker_id`` names the casualty when the failure is attributable to
    one worker holding one in-flight item — the supervisor then respawns
    that worker and requeues the item.  ``None`` means the pool's state
    is unknown (queue plumbing failure, multiple deaths in one poll):
    the executor degrades to serial, the historical behavior.
    """

    def __init__(self, message: str, worker_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.worker_id = worker_id


def _declaration(name: str, function_type, arg_names: Sequence[str],
                 attributes) -> Function:
    """Rebuild a callee as a bodiless declaration (worker-side decoder)."""
    return Function(name, function_type, arg_names, attributes)


class _ItemPickler(pickle.Pickler):
    """Pickle a work item, shipping non-version functions as declarations."""

    def __init__(self, file, versions: Sequence[Function]) -> None:
        super().__init__(file)
        self._versions = versions

    def reducer_override(self, obj):
        if not isinstance(obj, Function) \
                or any(obj is version for version in self._versions):
            return NotImplemented
        return _declaration, (obj.name, obj.function_type,
                              [arg.name for arg in obj.args], obj.attributes)


def encode_item(tag: int, item: Tuple) -> bytes:
    """The wire bytes of one ``(tag, item)`` dispatch (see the module doc).

    ``pickle.loads`` decodes them; both steal transports use this one
    encoder, so a pipe worker and a remote worker see the same item.
    """
    versions = item[1] if item[0] == "chain" else item[1:3]
    buffer = io.BytesIO()
    _ItemPickler(buffer, versions).dump((tag, item))
    return buffer.getvalue()


def _steal_worker_main(worker_id: int, inbox, outbox) -> None:
    """Worker loop: unpickle one item, validate it, ship the outcome back.

    Runs in a child process.  A ``None`` payload is the shutdown
    sentinel.  Item-level exceptions are reported back as failures (the
    parent retries or degrades) rather than killing the worker — with
    one deliberate exception: an injected ``"worker"``-site crash fault
    hard-exits the process *before* the try block, because a crash that
    merely reported an error would never exercise the supervisor's
    respawn path.  :class:`~repro.validator.faults.PairTimeout` is a
    ``BaseException`` and is settled inside ``validate_bounded`` before
    it could reach the ``except Exception`` here.
    """
    from .executors import _validate_item, item_detail  # deferred: executors imports us
    from .. import faults

    faults.mark_worker_process()
    while True:
        payload = inbox.get()
        if payload is None:
            break
        tag, item = pickle.loads(payload)
        plan = getattr(item[-1], "fault_plan", None)
        faults.maybe_fire(plan, "worker", detail=item_detail(item))
        try:
            message = (worker_id, tag, True, _validate_item(item))
        except Exception as error:
            message = (worker_id, tag, False, f"{type(error).__name__}: {error}")
        outbox.put(message)


class StealPool:
    """A persistent pool of single-item workers for work stealing.

    The pool only moves items and results; *which* item a worker gets
    next — its own deque, or one stolen from a loaded sibling — is the
    executor's scheduling policy, and *whether* a dead worker is
    respawned or the backend degrades is the executor's supervision
    policy (:meth:`respawn` is the mechanism).  Tests monkeypatch this
    class to inject worker deaths without spawning processes.
    """

    def __init__(self, workers: int) -> None:
        context = multiprocessing.get_context()
        self._context = context
        self._outbox = context.Queue()
        self._inboxes = []
        self._processes = []
        #: Workers restarted after a death (supervision telemetry).
        self.respawns = 0
        try:
            for worker_id in range(workers):
                self._spawn(worker_id)
        except BaseException:
            self.close()
            raise

    def _spawn(self, worker_id: int) -> None:
        """Start worker ``worker_id`` with a fresh inbox.

        A *fresh* inbox matters for respawns: the dead worker's inbox
        may still hold a pickled in-flight item, and the replacement
        must not double-process it — the supervisor requeues the item
        from its own ``outstanding`` bookkeeping instead.
        """
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_steal_worker_main,
            args=(worker_id, inbox, self._outbox),
            daemon=True, name=f"steal-worker-{worker_id}")
        process.start()
        if worker_id < len(self._inboxes):
            self._inboxes[worker_id] = inbox
            self._processes[worker_id] = process
        else:
            self._inboxes.append(inbox)
            self._processes.append(process)

    def send(self, worker_id: int, tag: int, item: Tuple) -> int:
        """Dispatch one item to ``worker_id``; returns the encoded size.

        Encodes here, in the parent (see :func:`encode_item`).
        """
        payload = encode_item(tag, item)
        self._inboxes[worker_id].put(payload)
        return len(payload)

    def receive(self, outstanding: Dict[int, Tuple]) -> Tuple[int, int, bool, object]:
        """The next completed item: ``(worker id, tag, ok, payload)``.

        Blocks until a result arrives, checking the liveness of every
        worker in ``outstanding`` (worker id -> dispatched item) while
        waiting; a dead worker holding an item raises
        :class:`BrokenStealPool` naming it, so the supervisor can
        respawn and requeue instead of degrading.  Results already
        queued by a worker that died afterwards are still delivered
        first.
        """
        while True:
            try:
                return self._outbox.get(timeout=0.1)
            except queue.Empty:
                for worker_id in outstanding:
                    if not self._processes[worker_id].is_alive():
                        raise BrokenStealPool(
                            f"steal worker {worker_id} died mid-item",
                            worker_id=worker_id)

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh process (and fresh inbox)."""
        old_process = self._processes[worker_id]
        if old_process.is_alive():
            old_process.terminate()
        old_process.join(timeout=1.0)
        old_inbox = self._inboxes[worker_id]
        try:
            old_inbox.close()
            old_inbox.cancel_join_thread()
        except Exception:
            pass
        self._spawn(worker_id)
        self.respawns += 1

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker (fault injection's ``"steal-dispatch"`` site)."""
        process = self._processes[worker_id]
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)

    def close(self) -> None:
        """Shut the workers down; terminate any that ignore the sentinel."""
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
        for channel in self._inboxes + [self._outbox]:
            try:
                channel.close()
                channel.cancel_join_thread()
            except Exception:
                pass
        self._inboxes = []
        self._processes = []


__all__ = ["BrokenStealPool", "StealPool", "encode_item"]
