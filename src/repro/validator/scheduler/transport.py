"""The worker pool's wire: item encoding, TCP framing and the pool itself.

The executor's worker pool runs over one transport, TCP, whether its
workers are local processes or a fleet on other hosts:

* **Item encoding** — :func:`encode_item` pickles a work item's own
  function versions in full and every other
  :class:`~repro.ir.module.Function` it reaches as a bodiless
  declaration (name, signature, argument names and attributes, rebuilt
  worker-side by :func:`_declaration`).  The validator reads only a
  callee's name and its ``readonly``/``readnone`` attributes, yet a
  plain pickle of one version drags in every function of its module
  through ``Call`` operands and ``Function.parent``.  Verdicts cannot
  change: no callee body is ever translated, and a self-recursive call
  still resolves to the version object itself.
* **Framing** — length-prefixed stdlib frames: a 4-byte big-endian
  length (``struct``) followed by a pickled message.  No third-party
  wire format; truncated and oversized frames raise :class:`FrameError`
  instead of desynchronizing the stream.
* **Handshake** — every connection opens with ``("hello", schema,
  fingerprint, "worker")`` and is rejected unless both the transport
  schema version (:data:`TRANSPORT_SCHEMA`) and the config fingerprint
  (:func:`config_fingerprint`) match the coordinator's.  Workers are the
  only peers: there is no served proof store, so a verdict reaches the
  proof cache only through its result frame, filed by the parent.  A
  fleet mixing incompatible rule registries or wire formats must fail
  loudly at join time, never by producing divergent verdicts.
* **:class:`TcpStealPool`** — the ``send(tag, item)`` /
  ``receive(outstanding_tags)`` / ``respawn`` / ``kill(tag)`` /
  ``close`` contract that
  :class:`~repro.validator.scheduler.executors.Executor`'s dispatch
  queue, cancellation, supervision and budget machinery drive.
  Internally it runs a
  :class:`~repro.validator.scheduler.remote.StealCoordinator` asyncio
  server on a background thread.  With ``config.steal_listen`` unset it
  binds a loopback ephemeral port and forks ``workers`` local worker
  processes (each :func:`~repro.validator.scheduler.remote.run_worker`)
  that join it; with ``steal_listen`` set it starts none and waits for
  an external fleet (``python -m repro.validator.scheduler.worker
  --connect HOST:PORT``).

Items are named by their executor tag, never by a worker: the executor
keeps at most ``workers`` items in flight, and which connection serves
one is the coordinator's business (the next idle one).  An item lost to
a disconnect surfaces as an attributable :class:`BrokenStealPool` naming
its tag from :meth:`TcpStealPool.receive`, so the executor's
respawn/requeue/quarantine supervision recovers; a local worker process
found dead is replaced by a fresh one.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import queue
import socket
import stat
import struct
import threading
import time
from typing import Container, List, Optional, Sequence, Tuple

from ...ir.module import Function

class BrokenStealPool(RuntimeError):
    """A pool worker died or misbehaved.

    ``tag`` names the in-flight item whose worker died when the failure
    is attributable — the supervisor then respawns a worker and requeues
    the item.  ``None`` means the pool's state is unknown (the
    coordinator thread died, no worker ever joined): the executor
    degrades to in-process execution.
    """

    def __init__(self, message: str, tag: Optional[int] = None) -> None:
        super().__init__(message)
        self.tag = tag


# -- item encoding ------------------------------------------------------------

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

    ``pickle.loads`` decodes them.
    """
    versions = item[1] if item[0] == "chain" else item[1:3]
    buffer = io.BytesIO()
    _ItemPickler(buffer, versions).dump((tag, item))
    return buffer.getvalue()


# -- framing ------------------------------------------------------------------

#: Wire-format version. Bump on any frame/message shape change; the
#: handshake rejects mismatches so old workers can never misparse.
#: Version 2: work items carry callee declarations (``encode_item``).
#: Version 3: the ``"store"`` role is gone; workers are the only peers.
#: Version 4: chain items carry their versions' fingerprints.
TRANSPORT_SCHEMA = 4

#: Upper bound on one frame's payload. Far above any real work item or
#: result (whole-module payloads are megabytes at most); mainly a guard
#: against reading a garbage length off a desynchronized stream.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: struct format of the length prefix: unsigned 32-bit big-endian.
_LENGTH = struct.Struct(">I")

#: How long the parent waits for at least one worker to join before
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


# -- framing (blocking sockets: the workers) --------------------------------

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
    normalization engines) plus the wire schema version — no store
    schema, since no worker touches a store; with a ``config``,
    additionally pins that run's verdict-relevant knobs.  Workers send
    the code-level fingerprint (they cannot know the run config before
    connecting — the config rides inside each work item), and the
    coordinator rejects any mismatch at handshake.
    """
    from ...vgraph.normalize import ENGINES
    from ...vgraph.rules import ALL_RULE_GROUPS

    basis = {
        "transport_schema": TRANSPORT_SCHEMA,
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
    """Parse ``"host:port"`` (the only address syntax the CLI accepts).

    Raises :class:`ValueError` unless the host is non-empty and the port
    is a decimal number in ``[0, 65535]``.
    """
    host, sep, port = address.rpartition(":")
    if not (sep and host and port.isdigit() and int(port) <= 65535):
        raise ValueError(
            f"address must be HOST:PORT with a port in [0, 65535] "
            f"(got {address!r})")
    return host, int(port)


# -- the pool -----------------------------------------------------------------

def _drop_inherited_sockets() -> None:
    """Release every socket descriptor this process inherited.

    A forked worker starts with a copy of each descriptor its parent
    held: the coordinator's listener, every other worker's connection,
    the event loop's wake-up pair.  Holding them keeps those sockets
    open after the parent closes its ends.  Each is pointed at
    ``/dev/null`` rather than closed, so its number stays taken and a
    copied socket object the worker never touches cannot later close a
    descriptor the worker opened itself.  Standard input, output and
    error are kept even when they are sockets (a journal, a harness's
    socketpair): a crashing worker's traceback must still reach them.
    Without ``/proc`` nothing is released.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for descriptor in descriptors:
            try:
                if descriptor > 2 and descriptor != null \
                        and stat.S_ISSOCK(os.fstat(descriptor).st_mode):
                    os.dup2(null, descriptor)
            except OSError:
                continue  # closed meanwhile (listdir's own descriptor)
    finally:
        os.close(null)


def _local_worker_main(address: Tuple[str, int]) -> None:
    """A local worker process: serve the parent's coordinator until killed.

    The forked child first releases the sockets it inherited
    (:func:`_drop_inherited_sockets`); it has opened none of its own yet.
    ``reconnect`` lets a worker whose connection was severed (the
    ``"conn-drop"`` site) or whose handshake was refused rejoin on its
    own; only a dead process needs replacing.
    """
    from .remote import run_worker  # deferred: remote imports our framing

    _drop_inherited_sockets()
    run_worker(address, reconnect=True)


class TcpStealPool:
    """The executor's worker pool: a coordinator and its workers.

    Owns a background thread running a
    :class:`~repro.validator.scheduler.remote.StealCoordinator` event
    loop.  ``send`` encodes the item in the caller's thread (an
    unpicklable payload raises synchronously where the executor can
    catch it) and hands the bytes to the loop; ``receive`` blocks on the
    coordinator's thread-safe result queue, converting a death event
    into a :class:`BrokenStealPool` naming the lost item's tag so the
    executor's supervisor requeues it.  ``kill`` severs the connection
    serving an item (fault injection's ``"steal-dispatch"`` site rides
    on this).

    Without a ``listen`` address (argument or ``config.steal_listen``)
    the pool binds a loopback ephemeral port and forks ``workers`` local
    worker processes; ``respawn`` and every ``receive`` replace any of
    them found dead, and ``close`` terminates them.  With one, it starts
    no process and serves whichever fleet joins.
    """

    def __init__(self, workers: int, config=None, *,
                 listen: Optional[str] = None,
                 connect_grace: Optional[float] = None) -> None:
        from . import remote  # deferred: remote imports our framing

        self.workers = workers
        self.respawns = 0
        self.connect_grace = (CONNECT_GRACE if connect_grace is None
                              else connect_grace)
        listen = listen or getattr(config, "steal_listen", None)
        host, port = split_address(listen or "127.0.0.1:0")
        #: Local worker processes (none when serving an external fleet).
        self._processes: List[multiprocessing.Process] = []
        self._coordinator = remote.StealCoordinator(
            config=config, host=host, port=port)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._serve, daemon=True, name="steal-coordinator")
        self._thread.start()
        try:
            future = asyncio.run_coroutine_threadsafe(
                self._coordinator.start(), self._loop)
            #: ``(host, port)`` actually bound (port 0 resolves here).
            self.address = future.result(timeout=10.0)
            if listen is None:
                # Resolve once here: forked workers inherit the loaded
                # resolver instead of each paying for it on connect.
                socket.getaddrinfo(*self.address)
                for _ in range(workers):
                    self._spawn()
        except BaseException:
            self.close()
            raise

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _spawn(self) -> None:
        # The platform's default start method (fork on Linux): a spawned
        # worker re-imports the validator, ~300 ms against ~5 ms, which a
        # small batch never amortizes.  The child runs only run_worker,
        # which takes no lock the coordinator thread could be holding.
        process = multiprocessing.Process(
            target=_local_worker_main, args=(self.address,), daemon=True,
            name=f"steal-worker-{len(self._processes)}")
        process.start()
        self._processes.append(process)

    def _replace_dead(self) -> None:
        """Reap local workers that died and start one fresh process each."""
        dead = [process for process in self._processes
                if not process.is_alive()]
        for process in dead:
            process.join()
            self._processes.remove(process)
            self._spawn()

    @property
    def coordinator(self):
        return self._coordinator

    def _call(self, fn, *args) -> None:
        if self._loop.is_closed():
            raise BrokenStealPool("steal coordinator already closed")
        self._loop.call_soon_threadsafe(fn, *args)

    def send(self, tag: int, item: Tuple) -> int:
        """Queue item ``tag`` for the next idle worker; returns its size.

        Encodes here, in the parent (see :func:`encode_item`).
        """
        from .executors import item_detail  # deferred: executors imports us

        payload = encode_item(tag, item)
        self._call(self._coordinator.enqueue, tag, payload, item_detail(item))
        return len(payload)

    def receive(self, outstanding_tags: Container[int]
                ) -> Tuple[int, bool, object]:
        """The next completed item: ``(tag, ok, payload)``.

        A death event for an outstanding tag (its connection dropped
        while holding the item) raises a :class:`BrokenStealPool` naming
        that tag; no live worker for :data:`CONNECT_GRACE` seconds
        raises an unattributable one, so the executor degrades to
        in-process execution instead of hanging on an empty network.
        """
        self._replace_dead()
        waited_since = time.monotonic()
        while True:
            if self._coordinator.live_workers > 0:
                waited_since = time.monotonic()
            try:
                event = self._coordinator.results.get(timeout=0.1)
            except queue.Empty:
                if not self._thread.is_alive():
                    raise BrokenStealPool("steal coordinator thread died")
                self._replace_dead()
                if (self._coordinator.live_workers == 0
                        and time.monotonic() - waited_since
                        > self.connect_grace):
                    raise BrokenStealPool(
                        f"no worker joined within {self.connect_grace:g}s "
                        f"(start one with: python -m "
                        f"repro.validator.scheduler.worker --connect "
                        f"{self.address[0]}:{self.address[1]})")
                continue
            if event[0] == "death":
                _, tag, message = event
                if tag in outstanding_tags:
                    raise BrokenStealPool(message, tag=tag)
                continue  # stale: the item was already settled
            _, tag, ok, payload = event
            return tag, ok, payload

    def respawn(self) -> None:
        """Recover after a death: replace dead local processes.

        Nothing else needs a reset — the requeued item goes to the next
        idle connection.
        """
        self._replace_dead()
        self.respawns += 1

    def kill(self, tag: int) -> None:
        """Sever the connection serving item ``tag`` (fault injection)."""
        self._call(self._coordinator.kill, tag)

    def close(self) -> None:
        """Tell workers the batch is over, stop the server, end the workers."""
        if not self._loop.is_closed():
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
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=1.0)
        self._processes = []


__all__ = [
    "CONNECT_GRACE",
    "MAX_FRAME_BYTES",
    "TRANSPORT_SCHEMA",
    "BrokenStealPool",
    "ConnectionClosed",
    "FrameError",
    "HandshakeError",
    "TcpStealPool",
    "config_fingerprint",
    "encode_item",
    "pack_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "split_address",
    "write_frame",
]
