"""TCP transport for the work-stealing executor: framing + the pool shim.

The ``"steal"`` backend's :class:`~repro.validator.scheduler.steal.StealPool`
speaks an in-process ``multiprocessing`` pipe protocol, which caps a
batch's throughput at one host's cores.  This module carries the same
single-item dispatch protocol over TCP so workers on *other* hosts (or
plain subprocesses on this one) can join the queue:

* **Framing** — length-prefixed stdlib frames: a 4-byte big-endian
  length (``struct``) followed by a pickled message.  No third-party
  wire format; truncated and oversized frames raise :class:`FrameError`
  instead of desynchronizing the stream.
* **Handshake** — every connection opens with ``("hello", schema,
  fingerprint, role)`` and is rejected unless both the transport
  schema version (:data:`TRANSPORT_SCHEMA`) and the config fingerprint
  (:func:`config_fingerprint`) match the coordinator's.  A fleet mixing
  incompatible rule registries or wire formats must fail loudly at
  join time, never by producing divergent verdicts.
* **:class:`TcpStealPool`** — a drop-in for :class:`StealPool`: the
  same ``send(worker_id, tag, item)`` / ``receive(outstanding)`` /
  ``respawn`` / ``kill_worker`` / ``close`` contract, so
  :class:`~repro.validator.scheduler.executors.Executor`'s
  scheduling, cancellation, supervision and budget machinery is reused
  unchanged.  Internally it runs a
  :class:`~repro.validator.scheduler.remote.StealCoordinator` asyncio
  server on a background thread; remote workers join via ``python -m
  repro.validator.scheduler.worker --connect HOST:PORT``.

Worker slots are *virtual* here: the executor still addresses workers
``0..N-1`` and keeps at most one item in flight per slot, but which
remote connection serves a slot's item is the coordinator's business
(an idle connection steals from the most-loaded slot).  A slot whose
item was lost to a disconnect surfaces as an attributable
:class:`~repro.validator.scheduler.steal.BrokenStealPool` from
:meth:`TcpStealPool.receive`, so the executor's existing
respawn/requeue/quarantine supervision recovers exactly as it does for
a dead pipe worker.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pickle
import queue
import socket
import struct
import threading
import time
from typing import Dict, Optional, Tuple

from .steal import BrokenStealPool, encode_item

#: Wire-format version. Bump on any frame/message shape change; the
#: handshake rejects mismatches so old workers can never misparse.
#: Version 2: work items carry callee declarations (``encode_item``).
TRANSPORT_SCHEMA = 2

#: Upper bound on one frame's payload. Far above any real work item or
#: result (whole-module payloads are megabytes at most); mainly a guard
#: against reading a garbage length off a desynchronized stream.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: struct format of the length prefix: unsigned 32-bit big-endian.
_LENGTH = struct.Struct(">I")

#: How long the parent waits for at least one remote worker before
#: declaring the pool broken (unattributable -> the executor degrades
#: to serial, so a missing fleet costs a delay, never a hang). Tests
#: monkeypatch this down.
CONNECT_GRACE = 15.0


class FrameError(RuntimeError):
    """A frame could not be read or written (truncated, oversized, garbage)."""


class ConnectionClosed(FrameError):
    """The peer closed the connection cleanly at a frame boundary."""


class HandshakeError(FrameError):
    """The peer rejected (or botched) the hello/welcome handshake."""


# -- framing (blocking sockets: workers and the RemoteStore client) ---------

def pack_frame(message: object) -> bytes:
    """Serialize one message to a length-prefixed frame."""
    payload = pickle.dumps(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte transport bound")
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: object) -> None:
    """Write one framed message to a blocking socket."""
    sock.sendall(pack_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            got = count - remaining
            if got == 0 and len(chunks) == 0 and count == _LENGTH.size:
                raise ConnectionClosed("connection closed")
            raise FrameError(
                f"truncated frame: expected {count} bytes, got {got}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> object:
    """Read one framed message from a blocking socket.

    Raises :class:`ConnectionClosed` on a clean EOF between frames and
    :class:`FrameError` on a truncated or oversized frame.
    """
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"oversized frame: {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte transport bound")
    payload = _recv_exact(sock, length)
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise FrameError(f"undecodable frame: {error}") from error


# -- framing (asyncio streams: the coordinator) -----------------------------

async def read_frame(reader: asyncio.StreamReader) -> object:
    """Async twin of :func:`recv_frame`."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise ConnectionClosed("connection closed") from error
        raise FrameError("truncated frame header") from error
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"oversized frame: {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte transport bound")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            f"truncated frame: expected {length} bytes, "
            f"got {len(error.partial)}") from error
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise FrameError(f"undecodable frame: {error}") from error


async def write_frame(writer: asyncio.StreamWriter, message: object) -> None:
    """Async twin of :func:`send_frame`."""
    writer.write(pack_frame(message))
    await writer.drain()


# -- the config fingerprint -------------------------------------------------

def config_fingerprint(config=None) -> str:
    """Digest of everything that must match across a validation fleet.

    Covers the code-level registries a verdict depends on (rule groups,
    normalization engines, matcher names) plus the wire and store schema
    versions; with a ``config``, additionally pins that run's
    verdict-relevant knobs.  Workers send the code-level fingerprint
    (they cannot know the run config before connecting — the config
    rides inside each work item exactly as it does on the pipe
    transport), and the coordinator rejects any mismatch at handshake.
    """
    from ...vgraph.normalize import ENGINES
    from ...vgraph.rules import ALL_RULE_GROUPS
    from ..cache import SQLITE_SCHEMA

    basis = {
        "transport_schema": TRANSPORT_SCHEMA,
        "sqlite_schema": SQLITE_SCHEMA,
        "rule_groups": sorted(ALL_RULE_GROUPS),
        "engines": list(ENGINES),
    }
    if config is not None:
        basis["config"] = {
            "rule_groups": list(config.rule_groups),
            "matcher": config.matcher,
            "engine": config.engine,
            "max_iterations": config.max_iterations,
            "recursion_limit": config.recursion_limit,
        }
    canonical = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def split_address(address: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` (the only address syntax the CLI accepts)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT (got {address!r})")
    return host, int(port)


# -- the pool shim ----------------------------------------------------------

class TcpStealPool:
    """The :class:`StealPool` contract served over TCP.

    Owns a background thread running a
    :class:`~repro.validator.scheduler.remote.StealCoordinator` event
    loop.  ``send`` encodes the item in the caller's thread (an
    unpicklable payload raises synchronously where the executor can
    catch it, exactly like the pipe pool) and hands the bytes to the
    loop; ``receive`` blocks on the coordinator's thread-safe result
    queue, converting a slot-death event into an attributable
    :class:`BrokenStealPool` so the executor's supervisor requeues the
    lost item.  ``respawn`` is bookkeeping only — the replacement
    "worker" is whichever remote connection next steals the slot's
    requeued item — and ``kill_worker`` severs the connection currently
    serving the slot (fault injection's network sites ride on this).
    """

    def __init__(self, workers: int, config=None, *,
                 listen: Optional[str] = None,
                 connect_grace: Optional[float] = None,
                 store=None) -> None:
        from . import remote  # deferred: remote imports our framing

        self.workers = workers
        self.respawns = 0
        self.connect_grace = (CONNECT_GRACE if connect_grace is None
                              else connect_grace)
        address = listen or getattr(config, "steal_listen", None) \
            or "127.0.0.1:0"
        host, port = split_address(address)
        self._coordinator = remote.StealCoordinator(
            workers, config=config, store=store, host=host, port=port)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._serve, daemon=True, name="steal-coordinator")
        self._thread.start()
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._coordinator.start(), self._loop)
            #: ``(host, port)`` actually bound (port 0 resolves here).
            self.address = future.result(timeout=10.0)
        except BaseException:
            self.close()
            raise

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def coordinator(self):
        return self._coordinator

    def _call(self, fn, *args) -> None:
        if self._loop.is_closed():
            raise BrokenStealPool("steal coordinator already closed")
        self._loop.call_soon_threadsafe(fn, *args)

    def send(self, worker_id: int, tag: int, item: Tuple) -> int:
        """Queue one item for ``worker_id``; returns the encoded size.

        Encodes here, in the parent, with the pipe pool's
        :func:`~repro.validator.scheduler.steal.encode_item`.
        """
        from .executors import item_detail  # deferred: executors imports us

        payload = encode_item(tag, item)
        self._call(self._coordinator.enqueue, worker_id, tag, payload,
                   item_detail(item))
        return len(payload)

    def receive(self, outstanding: Dict[int, Tuple]
                ) -> Tuple[int, int, bool, object]:
        """The next completed item: ``(worker id, tag, ok, payload)``.

        A slot-death event (its connection dropped while holding the
        slot's item) raises an attributable :class:`BrokenStealPool`;
        a fleet that never connects within :data:`CONNECT_GRACE` raises
        an unattributable one, so the executor degrades to serial
        instead of hanging on an empty network.
        """
        waited_since = time.monotonic()
        while True:
            if self._coordinator.live_workers > 0:
                waited_since = time.monotonic()
            try:
                event = self._coordinator.results.get(timeout=0.1)
            except queue.Empty:
                if not self._thread.is_alive():
                    raise BrokenStealPool("steal coordinator thread died")
                if (self._coordinator.live_workers == 0
                        and time.monotonic() - waited_since
                        > self.connect_grace):
                    raise BrokenStealPool(
                        f"no remote workers joined within "
                        f"{self.connect_grace:g}s (start one with: python -m "
                        f"repro.validator.scheduler.worker --connect "
                        f"{self.address[0]}:{self.address[1]})")
                continue
            if event[0] == "death":
                _, slot, message = event
                if slot in outstanding:
                    raise BrokenStealPool(message, worker_id=slot)
                continue  # stale: the slot's item was already settled
            _, slot, tag, ok, payload = event
            return slot, tag, ok, payload

    def respawn(self, worker_id: int) -> None:
        """Reset a slot after a death (the next connection inherits it)."""
        self._call(self._coordinator.clear_slot, worker_id)
        self.respawns += 1

    def kill_worker(self, worker_id: int) -> None:
        """Sever the connection serving ``worker_id`` (fault injection)."""
        self._call(self._coordinator.kill_slot, worker_id)

    def close(self) -> None:
        """Tell workers the batch is over, stop the server, join the thread."""
        if self._loop.is_closed():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._coordinator.shutdown(), self._loop)
            future.result(timeout=5.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._loop.is_closed():
            self._loop.close()


__all__ = [
    "CONNECT_GRACE",
    "MAX_FRAME_BYTES",
    "TRANSPORT_SCHEMA",
    "ConnectionClosed",
    "FrameError",
    "HandshakeError",
    "TcpStealPool",
    "config_fingerprint",
    "pack_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "split_address",
    "write_frame",
]
