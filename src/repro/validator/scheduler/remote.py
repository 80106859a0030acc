"""The steal coordinator server and the worker loop.

Two pieces carry the executor's pool protocol over TCP, whether the
workers are the pool's own loopback processes or a fleet on other hosts:

:class:`StealCoordinator`
    An asyncio server holding a lease table.  The executor's
    ``send(tag, item)`` calls land here as entries of one FIFO of
    pending work, already in the executor's priority order; an idle
    connection takes its head and holds that entry's *lease*, named by
    its tag, until it returns a result.  The executor never has more
    items in flight than workers, so the coordinator schedules nothing
    itself.  Results and deaths flow back to the parent through a
    thread-safe queue.  The coordinator never requeues a lost item
    itself: a disconnect while holding tag *t*'s lease surfaces as a
    death event for *t*, and the executor's ``outstanding``
    bookkeeping — the single source of truth — requeues it through the
    respawn/requeue/quarantine supervision.  (A coordinator-side
    requeue would race that supervision into double-executing the
    item.)

:func:`run_worker`
    The worker loop (the body of every local pool process, and of
    ``python -m repro.validator.scheduler.worker --connect HOST:PORT``):
    connect, handshake, then validate one item at a time and send each
    verdict back in a result frame.  Workers hold no proof store: the
    parent's plan only ships items its own cache found uncached and
    deduplicated, and it files every returned verdict there.
    ``--reconnect`` makes the worker outlive coordinator restarts (each
    corpus batch binds a fresh server on the same port), which is how a
    two-process loopback fleet serves a whole guard sweep.

Fault sites (all consulted coordinator-side, so their schedules count
deterministically in one process): ``"handshake"`` rejects a joining
connection, ``"conn-drop"`` severs a connection right after an item is
dispatched to it (the disconnect path then emits the death that drives
respawn/requeue), and ``"conn-delay"`` holds a completed result for
``seconds`` before delivering it.
"""

from __future__ import annotations

import asyncio
import collections
import os
import pickle
import queue
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Deque, List, Optional, Set, Tuple

from .. import faults
from .transport import (
    TRANSPORT_SCHEMA,
    ConnectionClosed,
    FrameError,
    HandshakeError,
    config_fingerprint,
    read_frame,
    recv_frame,
    send_frame,
    split_address,
    write_frame,
)


def _sever(writer: asyncio.StreamWriter) -> None:
    """End a worker connection so the worker sees EOF.

    ``shutdown`` acts on the socket itself: local workers forked after
    this connection was accepted hold duplicates of its descriptor, and
    a plain close would leave its worker waiting on a connection that
    never reports the end.
    """
    sock = writer.get_extra_info("socket")
    try:
        if sock is not None:
            sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        writer.close()
    except Exception:
        pass


class _Conn:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("reader", "writer", "lease", "parked")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: ``(tag, detail)`` of the item this connection holds.
        self.lease: Optional[Tuple[int, str]] = None
        self.parked = False


class StealCoordinator:
    """Asyncio server leasing queued work items to connected workers.

    Thread contract: every method except :attr:`results` reads is meant
    to run on the server's event loop —
    :class:`~repro.validator.scheduler.transport.TcpStealPool` calls
    :meth:`enqueue` / :meth:`kill` via ``call_soon_threadsafe`` and
    blocks on the thread-safe :attr:`results` queue for ``("result",
    tag, ok, payload)`` and ``("death", tag, message)`` events.
    """

    def __init__(self, config=None, *,
                 plan: Optional[faults.FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.config = config
        self.plan = plan if plan is not None \
            else getattr(config, "fault_plan", None)
        self.host = host
        self.port = port
        #: What joining peers must present: the code-level fingerprint
        #: (rule registry, engines, schema versions).
        self.expected_fingerprint = config_fingerprint()
        #: Advertised in the welcome: additionally pins this run's
        #: verdict-relevant config knobs.
        self.run_fingerprint = (config_fingerprint(config)
                                if config is not None
                                else self.expected_fingerprint)
        #: Events for the parent thread (see class docstring).
        self.results: "queue.Queue" = queue.Queue()
        #: Queued ``(tag, payload, detail)`` entries, oldest first.
        self.pending: Deque[Tuple[int, bytes, str]] = collections.deque()
        self.live_workers = 0
        self.workers_joined = 0
        self.workers_left = 0
        self.rejected = 0
        self.address: Optional[Tuple[str, int]] = None
        self._conns = set()
        self._idle: List[_Conn] = []
        #: Tags :meth:`kill` named while their item was still queued:
        #: the connection that leases it is severed on dispatch.
        self._doomed: Set[int] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the server; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def shutdown(self) -> None:
        """Stop accepting and wave workers goodbye."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            try:
                await write_frame(conn.writer, ("close",))
            except Exception:
                pass
            _sever(conn.writer)
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=2.0)
            except Exception:
                pass
        # The serve loops are still parked in read_frame on connections
        # we just closed; cancel them so the event loop shuts down clean
        # (their finally blocks run the normal disconnect bookkeeping).
        current = asyncio.current_task()
        pending = [task for task in asyncio.all_tasks()
                   if task is not current and not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- parent-thread entry points (via call_soon_threadsafe) -------------
    def enqueue(self, tag: int, payload: bytes, detail: str) -> None:
        """Queue one pickled item and wake idle workers."""
        self.pending.append((tag, payload, detail))
        while self._idle and self.pending:
            conn = self._idle.pop(0)
            conn.parked = False
            asyncio.ensure_future(self._assign(conn, self._take(conn)))

    def kill(self, tag: int) -> None:
        """Sever the connection leasing item ``tag`` (fault injection).

        An item still queued is marked instead, and its connection is
        severed as soon as the item is written to it.
        """
        for conn in self._conns:
            if conn.lease is not None and conn.lease[0] == tag:
                _sever(conn.writer)
                return
        if any(entry[0] == tag for entry in self.pending):
            self._doomed.add(tag)

    # -- leasing -----------------------------------------------------------
    def _take(self, conn: _Conn) -> Tuple[int, bytes, str]:
        """Lease the oldest queued entry to ``conn``."""
        entry = self.pending.popleft()
        conn.lease = (entry[0], entry[2])
        return entry

    async def _next(self, conn: _Conn) -> None:
        """Hand ``conn`` the queue's head, or park it until work arrives."""
        if self.pending:
            await self._assign(conn, self._take(conn))
        elif not conn.parked:
            conn.parked = True
            self._idle.append(conn)

    async def _assign(self, conn: _Conn,
                      entry: Tuple[int, bytes, str]) -> None:
        tag, payload, detail = entry
        try:
            await write_frame(conn.writer, ("item", tag, payload))
        except Exception:
            # The connection is dying mid-dispatch; keep the lease so
            # the disconnect path emits the death that requeues the item.
            _sever(conn.writer)
            return
        # "conn-drop": the network loses this worker right after the
        # item reaches it.  Any firing action severs the connection —
        # the disconnect path below turns that into a death for the
        # item's tag, which the executor answers with respawn + requeue
        # (and quarantine past max_pair_retries).  A kill mark on a
        # queued item lands here the same way.
        dropped = faults.should_fire(self.plan, "conn-drop",
                                     detail=detail) is not None
        if dropped or tag in self._doomed:
            self._doomed.discard(tag)
            _sever(conn.writer)

    # -- connection handling -----------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            hello = await read_frame(reader)
        except (FrameError, OSError):
            writer.close()
            return
        reason = None
        if (not isinstance(hello, tuple) or len(hello) != 4
                or hello[0] != "hello"):
            reason = f"malformed hello {hello!r}"
        else:
            _, schema, fingerprint, role = hello
            try:
                faults.maybe_fire(self.plan, "handshake", detail=str(role))
            except BaseException as error:  # InjectedCrash included
                reason = f"injected handshake fault: {error}"
            if reason is None and schema != TRANSPORT_SCHEMA:
                reason = (f"transport schema {schema!r} does not match "
                          f"coordinator schema {TRANSPORT_SCHEMA}")
            if reason is None and fingerprint != self.expected_fingerprint:
                reason = ("config fingerprint mismatch: the worker's rule "
                          "registry or engine set differs from the "
                          "coordinator's")
            if reason is None and role != "worker":
                reason = f"unknown role {role!r}: workers are the only peers"
        if reason is not None:
            self.rejected += 1
            try:
                await write_frame(writer, ("reject", reason))
            except Exception:
                pass
            writer.close()
            return
        try:
            await write_frame(writer, ("welcome", self.run_fingerprint))
        except Exception:
            writer.close()
            return
        try:
            await self._serve_worker(reader, writer)
        except asyncio.CancelledError:
            # Only shutdown cancels handler tasks; swallowing here keeps
            # the streams connection_made callback (which calls
            # task.exception() unguarded) from spamming the loop's
            # exception handler.
            return

    async def _serve_worker(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        conn = _Conn(reader, writer)
        self._conns.add(conn)
        self.live_workers += 1
        self.workers_joined += 1
        try:
            while True:
                try:
                    msg = await read_frame(reader)
                except (FrameError, OSError):
                    break
                if not isinstance(msg, tuple) or not msg or msg[0] == "bye":
                    break
                kind = msg[0]
                if kind == "ready":
                    await self._next(conn)
                elif kind == "result":
                    _, _tag, ok, payload = msg
                    lease, conn.lease = conn.lease, None
                    if lease is None:
                        continue  # no lease: nothing to settle
                    tag, detail = lease
                    # "conn-delay": the network holds a finished result.
                    spec = faults.should_fire(self.plan, "conn-delay",
                                              detail=detail)
                    if spec is not None and spec.seconds > 0:
                        await asyncio.sleep(spec.seconds)
                    self.results.put(("result", tag, ok, payload))
                    await self._next(conn)
        finally:
            self._drop(conn)

    def _drop(self, conn: _Conn) -> None:
        self._conns.discard(conn)
        if conn.parked:
            self._idle.remove(conn)
            conn.parked = False
        lease, conn.lease = conn.lease, None
        self.live_workers -= 1
        self.workers_left += 1
        if lease is not None and not self._closing:
            self.results.put((
                "death", lease[0],
                f"worker disconnected holding {lease[1]!r} "
                f"(item {lease[0]})"))
        _sever(conn.writer)


# -- the worker ----------------------------------------------------------

def run_worker(address, *, fingerprint: Optional[str] = None,
               schema: Optional[int] = None, reconnect: bool = False,
               patience: float = 30.0, poll: float = 0.05) -> int:
    """Join a coordinator and serve items until told (or left) to stop.

    Returns the number of items served.  With ``reconnect``, the worker
    retries both refused connections and closed ones until ``patience``
    seconds pass without reaching a coordinator — that is what lets two
    long-lived worker processes serve every per-batch coordinator of a
    guard sweep on a fixed port.  A handshake rejection is retried the
    same way (the coordinator may be mid-restart); a worker that is
    *never* accepted gives up when its patience runs out.
    """
    from .executors import _validate_item

    faults.mark_worker_process()
    if isinstance(address, str):
        host, port = split_address(address)
    else:
        host, port = address
    served = 0
    deadline = time.monotonic() + patience
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            if not reconnect or time.monotonic() > deadline:
                return served
            time.sleep(poll)
            continue
        accepted = False
        try:
            send_frame(sock, ("hello",
                              TRANSPORT_SCHEMA if schema is None else schema,
                              fingerprint or config_fingerprint(), "worker"))
            reply = recv_frame(sock)
            if not (isinstance(reply, tuple) and reply
                    and reply[0] == "welcome"):
                raise HandshakeError(f"coordinator rejected us: {reply!r}")
            accepted = True
            send_frame(sock, ("ready",))
            while True:
                msg = recv_frame(sock)
                if not isinstance(msg, tuple) or not msg or msg[0] == "close":
                    break
                if msg[0] != "item":
                    continue
                _, tag, payload = msg
                _tag, item = pickle.loads(payload)
                try:
                    message = ("result", tag, True, _validate_item(item))
                except Exception as error:
                    message = ("result", tag, False,
                               f"{type(error).__name__}: {error}")
                send_frame(sock, message)
                served += 1
        except (FrameError, OSError):
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if not reconnect:
            return served
        if accepted:
            deadline = time.monotonic() + patience
        elif time.monotonic() > deadline:
            return served
        time.sleep(poll)


def spawn_workers(address, count: int, *, reconnect: bool = True,
                  patience: float = 60.0) -> List[subprocess.Popen]:
    """Launch ``count`` loopback worker subprocesses joined to ``address``.

    The benchmark/guard helper: resolves ``PYTHONPATH`` from the
    installed package so the subprocesses import the same tree, and
    leaves the workers in ``--reconnect`` mode so one fleet serves
    every batch of a sweep.  Callers own termination
    (``proc.terminate()``).
    """
    import repro

    if not isinstance(address, str):
        address = f"{address[0]}:{address[1]}"
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (src_root + os.pathsep + existing
                         if existing else src_root)
    command = [sys.executable, "-m", "repro.validator.scheduler.worker",
               "--connect", address, "--patience", str(patience)]
    if reconnect:
        command.append("--reconnect")
    return [subprocess.Popen(command, env=env) for _ in range(count)]


__all__ = [
    "StealCoordinator",
    "run_worker",
    "spawn_workers",
]
