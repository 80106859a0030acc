"""The steal coordinator server and the remote worker.

Two pieces carry the ``"steal"`` backend's protocol across hosts:

:class:`StealCoordinator`
    An asyncio server owning the shared work deques.  The executor's
    ``send(worker_id, tag, item)`` calls land here as per-slot entries;
    a connected worker that reports ready is served its *own* slot's
    newest entry first (LIFO-local) and otherwise steals the oldest
    entry of the most-loaded other slot (FIFO-steal) — the same policy
    the executor applies to its parent-side deques, now applied to the
    fleet.  Results and slot deaths flow back to the parent through a
    thread-safe queue.  The coordinator never requeues a lost item
    itself: a disconnect while holding slot *s*'s item surfaces as a
    death event for *s*, and the executor's ``outstanding`` bookkeeping
    — the single source of truth — requeues it through the existing
    respawn/requeue/quarantine supervision.  (A coordinator-side requeue
    would race that supervision into double-executing the item.)

:func:`run_worker`
    The remote worker loop (``python -m
    repro.validator.scheduler.worker --connect HOST:PORT``): connect,
    handshake, then validate one item at a time and send each verdict
    back in a result frame.  Workers hold no proof store: the parent's
    plan only ships items its own cache found uncached and
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
from typing import Deque, Dict, List, Optional, Tuple

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


class _Conn:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("reader", "writer", "slot", "lease", "parked")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: Bound slot id, or ``None`` for a steal-only connection (the
        #: fleet outnumbers the executor's slots).
        self.slot: Optional[int] = None
        #: ``(slot, tag, detail)`` of the item this connection holds.
        self.lease: Optional[Tuple[int, int, str]] = None
        self.parked = False


class StealCoordinator:
    """Asyncio server owning the shared deques of a steal fleet.

    Thread contract: every method except :attr:`results` reads is meant
    to run on the server's event loop —
    :class:`~repro.validator.scheduler.transport.TcpStealPool` calls
    :meth:`enqueue` / :meth:`clear_slot` / :meth:`kill_slot` via
    ``call_soon_threadsafe`` and blocks on the thread-safe
    :attr:`results` queue for ``("result", slot, tag, ok, payload)``
    and ``("death", slot, message)`` events.
    """

    def __init__(self, slots: int, config=None, *,
                 plan: Optional[faults.FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.slots = slots
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
        self.deques: List[Deque[Tuple[int, int, bytes, str]]] = [
            collections.deque() for _ in range(slots)]
        self.live_workers = 0
        self.workers_joined = 0
        self.workers_left = 0
        self.rejected = 0
        self.address: Optional[Tuple[str, int]] = None
        self._conns = set()
        self._slot_conns: Dict[int, _Conn] = {}
        self._idle: List[_Conn] = []
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
            try:
                conn.writer.close()
            except Exception:
                pass
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
    def enqueue(self, slot: int, tag: int, payload: bytes, detail: str) -> None:
        """Queue one pickled item for ``slot`` and wake an idle worker."""
        self.deques[slot].append((slot, tag, payload, detail))
        self._pump()

    def clear_slot(self, slot: int) -> None:
        """Respawn bookkeeping: forget a dead slot's queue and binding."""
        self.deques[slot].clear()
        self._slot_conns.pop(slot, None)

    def kill_slot(self, slot: int) -> None:
        """Sever the connection serving ``slot`` (fault injection)."""
        target = None
        for conn in self._conns:
            if conn.lease is not None and conn.lease[0] == slot:
                target = conn
                break
        if target is None:
            target = self._slot_conns.get(slot)
        if target is not None:
            try:
                target.writer.close()
            except Exception:
                pass

    # -- scheduling --------------------------------------------------------
    def _pick(self, conn: _Conn) -> Optional[Tuple[int, int, bytes, str]]:
        """LIFO from the connection's own slot, else FIFO-steal the most loaded."""
        if conn.slot is not None and self.deques[conn.slot]:
            return self.deques[conn.slot].pop()
        victims = [slot for slot in range(self.slots)
                   if slot != conn.slot and self.deques[slot]]
        if not victims:
            return None
        victim = max(victims, key=lambda slot: len(self.deques[slot]))
        return self.deques[victim].popleft()

    def _park(self, conn: _Conn) -> None:
        if not conn.parked:
            conn.parked = True
            self._idle.append(conn)

    def _pump(self) -> None:
        """Match queued work to parked connections."""
        while self._idle:
            conn = self._idle[0]
            entry = self._pick(conn)
            if entry is None:
                return
            self._idle.pop(0)
            conn.parked = False
            asyncio.ensure_future(self._assign(conn, entry))

    async def _assign(self, conn: _Conn,
                      entry: Tuple[int, int, bytes, str]) -> None:
        slot, tag, payload, detail = entry
        conn.lease = (slot, tag, detail)
        try:
            await write_frame(conn.writer, ("item", tag, payload))
        except Exception:
            # The connection is dying mid-dispatch; keep the lease so
            # the disconnect path emits the death that requeues the item.
            try:
                conn.writer.close()
            except Exception:
                pass
            return
        # "conn-drop": the network loses this worker right after the
        # item reaches it.  Any firing action severs the connection —
        # the disconnect path below turns that into a slot death, which
        # the executor answers with respawn + requeue (and quarantine
        # past max_pair_retries), exactly like a dead pipe worker.
        if faults.should_fire(self.plan, "conn-drop", detail=detail) is not None:
            try:
                conn.writer.close()
            except Exception:
                pass

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
        for slot in range(self.slots):
            if slot not in self._slot_conns:
                conn.slot = slot
                self._slot_conns[slot] = conn
                break
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
                    entry = self._pick(conn)
                    if entry is not None:
                        await self._assign(conn, entry)
                    else:
                        self._park(conn)
                elif kind == "result":
                    _, tag, ok, payload = msg
                    lease, conn.lease = conn.lease, None
                    if lease is None:
                        continue  # stale: the slot was already recycled
                    slot, _tag, detail = lease
                    # "conn-delay": the network holds a finished result.
                    spec = faults.should_fire(self.plan, "conn-delay",
                                              detail=detail)
                    if spec is not None and spec.seconds > 0:
                        await asyncio.sleep(spec.seconds)
                    self.results.put(("result", slot, tag, ok, payload))
                    entry = self._pick(conn)
                    if entry is not None:
                        await self._assign(conn, entry)
                    else:
                        self._park(conn)
        finally:
            self._drop(conn)

    def _drop(self, conn: _Conn) -> None:
        self._conns.discard(conn)
        if conn.parked:
            self._idle.remove(conn)
            conn.parked = False
        if conn.slot is not None and self._slot_conns.get(conn.slot) is conn:
            del self._slot_conns[conn.slot]
        lease, conn.lease = conn.lease, None
        self.live_workers -= 1
        self.workers_left += 1
        if lease is not None and not self._closing:
            self.results.put((
                "death", lease[0],
                f"remote worker disconnected holding {lease[2]!r} "
                f"(slot {lease[0]})"))
        try:
            conn.writer.close()
        except Exception:
            pass


# -- the remote worker ------------------------------------------------------

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
    from .executors import _validate_item, item_detail

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
                plan = getattr(item[-1], "fault_plan", None)
                faults.maybe_fire(plan, "worker", detail=item_detail(item))
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
