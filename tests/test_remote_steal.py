"""The worker pool's TCP transport: framing, handshake, requeue, config.

Everything here runs against the real machinery — blocking-socket frames
against real sockets, handshakes against a live
:class:`~repro.validator.scheduler.transport.TcpStealPool` coordinator,
hand-rolled worker connections that die mid-item — and asserts the
transport contract: malformed wire data raises instead of
desynchronizing, incompatible peers are rejected at join time, a
disconnect costs exactly a respawn + requeue with the item delivered
byte-identically to the replacement, and a malformed listen address
fails at config time instead of silently degrading the pool.
"""

import json
import multiprocessing
import os
import pickle
import socket
import struct
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.validator import faults
from repro.validator.config import DEFAULT_CONFIG, ValidatorConfig
from repro.validator.scheduler import transport
from repro.validator.scheduler.transport import (
    MAX_FRAME_BYTES,
    TRANSPORT_SCHEMA,
    BrokenStealPool,
    ConnectionClosed,
    FrameError,
    TcpStealPool,
    config_fingerprint,
    pack_frame,
    recv_frame,
    send_frame,
    split_address,
)
from repro.validator.service.client import (
    ServiceBusy,
    ServiceError,
    ValidationClient,
)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset()
    yield
    faults.reset()


def sock_pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


# -- framing edge cases ------------------------------------------------------

class TestFraming:
    def test_roundtrip(self):
        left, right = sock_pair()
        try:
            send_frame(left, ("hello", 1, "fp", "worker"))
            assert recv_frame(right) == ("hello", 1, "fp", "worker")
        finally:
            left.close()
            right.close()

    def test_clean_close_between_frames(self):
        left, right = sock_pair()
        left.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(right)
        finally:
            right.close()

    def test_truncated_header(self):
        left, right = sock_pair()
        left.sendall(b"\x00\x00")  # half a length prefix
        left.close()
        try:
            with pytest.raises(FrameError, match="truncated"):
                recv_frame(right)
        finally:
            right.close()

    def test_truncated_payload(self):
        left, right = sock_pair()
        frame = pack_frame(("item", 0, b"x" * 64))
        left.sendall(frame[:-10])
        left.close()
        try:
            with pytest.raises(FrameError, match="truncated"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_rejected_before_read(self):
        left, right = sock_pair()
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        try:
            with pytest.raises(FrameError, match="oversized"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_oversized_payload_rejected_at_pack(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 128)
        with pytest.raises(FrameError, match="exceeds"):
            pack_frame(b"x" * 256)

    def test_undecodable_payload(self):
        left, right = sock_pair()
        garbage = b"this is not a pickle"
        left.sendall(struct.pack(">I", len(garbage)) + garbage)
        try:
            with pytest.raises(FrameError, match="undecodable"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_split_address(self):
        assert split_address("127.0.0.1:8037") == ("127.0.0.1", 8037)
        with pytest.raises(ValueError):
            split_address("8037")
        with pytest.raises(ValueError):
            split_address(":8037")

    def test_fingerprint_pins_run_config(self):
        code_level = config_fingerprint()
        assert code_level == config_fingerprint()
        pinned = config_fingerprint(DEFAULT_CONFIG)
        assert pinned != code_level
        assert pinned == config_fingerprint(DEFAULT_CONFIG)


# -- handshake rejection against a live coordinator --------------------------

def hello(sock, schema=TRANSPORT_SCHEMA, fingerprint=None, role="worker"):
    if fingerprint is None:
        fingerprint = config_fingerprint()
    send_frame(sock, ("hello", schema, fingerprint, role))
    return recv_frame(sock)


class TestHandshake:
    @pytest.fixture()
    def pool(self):
        pool = TcpStealPool(1, None, listen="127.0.0.1:0",
                            connect_grace=2.0)
        yield pool
        pool.close()

    def connect(self, pool):
        sock = socket.create_connection(pool.address, timeout=5.0)
        sock.settimeout(5.0)
        return sock

    def test_matching_hello_is_welcomed(self, pool):
        sock = self.connect(pool)
        try:
            reply = hello(sock)
            assert reply[0] == "welcome"
            assert pool.coordinator.rejected == 0
        finally:
            sock.close()

    def test_schema_mismatch_rejected(self, pool):
        sock = self.connect(pool)
        try:
            reply = hello(sock, schema=TRANSPORT_SCHEMA + 1)
            assert reply[0] == "reject"
            assert "schema" in reply[1]
        finally:
            sock.close()

    def test_fingerprint_mismatch_rejected(self, pool):
        sock = self.connect(pool)
        try:
            reply = hello(sock, fingerprint="a" * 64)
            assert reply[0] == "reject"
            assert "fingerprint" in reply[1]
        finally:
            sock.close()

    def test_malformed_hello_rejected(self, pool):
        sock = self.connect(pool)
        try:
            send_frame(sock, ("greetings",))
            reply = recv_frame(sock)
            assert reply[0] == "reject"
            assert "malformed" in reply[1]
        finally:
            sock.close()

    def test_rejections_are_counted(self, pool):
        for _ in range(2):
            sock = self.connect(pool)
            try:
                assert hello(sock, schema=99)[0] == "reject"
            finally:
                sock.close()
        deadline = time.monotonic() + 5.0
        while pool.coordinator.rejected < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)


# -- disconnect mid-item: requeue parity -------------------------------------

class TestDisconnectRequeue:
    def join_and_take_item(self, pool):
        """Connect a hand-rolled worker and pull one item off the wire."""
        sock = socket.create_connection(pool.address, timeout=5.0)
        sock.settimeout(5.0)
        assert hello(sock)[0] == "welcome"
        send_frame(sock, ("ready",))
        frame = recv_frame(sock)
        assert frame[0] == "item"
        return sock, frame

    def test_disconnect_mid_item_requeues_byte_identical(self):
        pool = TcpStealPool(1, None, listen="127.0.0.1:0",
                            connect_grace=5.0)
        try:
            item = ("pair", SimpleNamespace(name="f"), 0, 1, DEFAULT_CONFIG)
            pool.send(tag=7, item=item)
            outstanding = {7}

            first, frame = self.join_and_take_item(pool)
            _, tag, payload = frame
            assert tag == 7
            assert pickle.loads(payload)[0] == 7
            first.close()  # die holding the lease

            with pytest.raises(BrokenStealPool) as excinfo:
                pool.receive(outstanding)
            assert excinfo.value.tag == 7
            pool.respawn()
            pool.send(tag=7, item=item)

            second, requeued = self.join_and_take_item(pool)
            try:
                # The replacement sees the item byte-for-byte.
                assert requeued == frame
                send_frame(second, ("result", 7, True, "settled"))
                assert pool.receive(outstanding) == (7, True, "settled")
            finally:
                second.close()
            assert pool.respawns == 1
        finally:
            pool.close()

    def test_stale_death_after_settlement_is_ignored(self):
        pool = TcpStealPool(1, None, listen="127.0.0.1:0",
                            connect_grace=5.0)
        try:
            item = ("pair", SimpleNamespace(name="f"), 0, 1, DEFAULT_CONFIG)
            pool.send(tag=3, item=item)
            sock, _ = self.join_and_take_item(pool)
            send_frame(sock, ("result", 3, True, "done"))
            assert pool.receive({3}) == (3, True, "done")
            sock.close()
            # The connection died *after* settling: receive must not
            # surface a death for work that is no longer outstanding.
            deadline = time.monotonic() + 5.0
            while pool.coordinator.live_workers > 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            pool.send(tag=4, item=item)
            replacement, frame = self.join_and_take_item(pool)
            try:
                assert frame[1] == 4
                send_frame(replacement, ("result", 4, True, "again"))
                assert pool.receive({4}) == (4, True, "again")
            finally:
                replacement.close()
        finally:
            pool.close()

    def test_severed_worker_sees_eof_despite_duplicate_descriptors(self):
        # Local workers forked after a connection was accepted hold
        # duplicates of the coordinator's end of it: severing must still
        # reach the worker, or it waits forever on a dead lease.
        pool = TcpStealPool(1, None, listen="127.0.0.1:0",
                            connect_grace=5.0)
        try:
            item = ("pair", SimpleNamespace(name="f"), 0, 1, DEFAULT_CONFIG)
            pool.send(tag=1, item=item)
            sock, _ = self.join_and_take_item(pool)
            conn, = pool.coordinator._conns
            duplicate = os.dup(conn.writer.get_extra_info("socket").fileno())
            try:
                pool.kill(1)
                with pytest.raises(ConnectionClosed):
                    recv_frame(sock)
            finally:
                os.close(duplicate)
                sock.close()
            with pytest.raises(BrokenStealPool) as excinfo:
                pool.receive({1})
            assert excinfo.value.tag == 1
        finally:
            pool.close()

    def test_empty_fleet_breaks_unattributably(self):
        pool = TcpStealPool(1, None, listen="127.0.0.1:0",
                            connect_grace=0.2)
        try:
            pool.send(tag=1,
                      item=("pair", SimpleNamespace(name="f"), 0, 1,
                            DEFAULT_CONFIG))
            with pytest.raises(BrokenStealPool) as excinfo:
                pool.receive({1})
            assert excinfo.value.tag is None
        finally:
            pool.close()


# -- where the workers come from --------------------------------------------

class TestWorkerSource:
    POOLED = replace(DEFAULT_CONFIG, concurrency=2)

    def test_local_mode_starts_one_worker_per_slot(self):
        pool = TcpStealPool(2, self.POOLED)
        processes = list(pool._processes)
        try:
            assert len(processes) == 2
            deadline = time.monotonic() + 10.0
            while pool.coordinator.workers_joined < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            pool.close()
        assert not any(process.is_alive() for process in processes)

    def test_respawn_replaces_a_dead_local_worker(self):
        pool = TcpStealPool(2, self.POOLED)
        try:
            victim = pool._processes[0]
            victim.terminate()
            victim.join()
            pool.respawn()
            assert victim not in pool._processes
            assert len(pool._processes) == 2
            assert all(process.is_alive() for process in pool._processes)
            assert pool.respawns == 1
        finally:
            pool.close()

    def test_worker_keeps_socket_stdio(self):
        # A service whose stderr is a socket (a journal, a harness's
        # socketpair) must still get a local worker's traceback.
        ours, theirs = socket.socketpair()

        def child():
            os.dup2(theirs.fileno(), 2)
            transport._drop_inherited_sockets()
            os.write(2, b"traceback")

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=10.0)
        theirs.close()
        ours.settimeout(5.0)
        try:
            assert process.exitcode == 0
            assert ours.recv(64) == b"traceback"
        finally:
            ours.close()

    def test_respawned_worker_holds_none_of_the_parents_sockets(self):
        # A forked worker starts with copies of the parent's descriptors;
        # it must release the coordinator's listener and every worker
        # connection before it serves.
        import asyncio

        async def parent_inodes():
            coordinator = pool.coordinator
            sockets = list(coordinator._server.sockets)
            sockets += [conn.writer.get_extra_info("socket")
                        for conn in coordinator._conns]
            return {os.fstat(sock.fileno()).st_ino for sock in sockets}

        def socket_inodes(pid):
            inodes = set()
            for name in os.listdir(f"/proc/{pid}/fd"):
                try:
                    target = os.readlink(f"/proc/{pid}/fd/{name}")
                except OSError:
                    continue
                if target.startswith("socket:["):
                    inodes.add(int(target[len("socket:["):-1]))
            return inodes

        pool = TcpStealPool(2, self.POOLED)
        try:
            deadline = time.monotonic() + 10.0
            while pool.coordinator.live_workers < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            victim = pool._processes[0]
            victim.terminate()
            victim.join()
            pool.respawn()
            child = pool._processes[-1]
            assert child is not victim and child.is_alive()
            while pool.coordinator.workers_joined < 3:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            held = asyncio.run_coroutine_threadsafe(
                parent_inodes(), pool._loop).result(timeout=5.0)
            assert len(held) >= 2  # the listener and the surviving worker
            assert not held & socket_inodes(child.pid)
        finally:
            pool.close()

    def test_fleet_mode_starts_no_local_process(self):
        before = set(multiprocessing.active_children())
        pool = TcpStealPool(2, replace(self.POOLED,
                                       steal_listen="127.0.0.1:0"),
                            connect_grace=1.0)
        try:
            assert pool._processes == []
            assert set(multiprocessing.active_children()) == before
            assert pool.coordinator.workers_joined == 0
        finally:
            pool.close()


# -- config validation of the transport knobs --------------------------------

class TestConfigValidation:
    def test_defaults_are_unset(self):
        assert DEFAULT_CONFIG.steal_listen is None
        assert DEFAULT_CONFIG.cache_dir is None

    def test_listen_requires_a_worker_pool(self):
        # Below concurrency 2 the executor runs in-process and never
        # binds a socket, so a listen address there would be silently
        # ignored.
        for concurrency in (0, 1):
            with pytest.raises(ValueError,
                               match="steal_listen.*concurrency"):
                ValidatorConfig(concurrency=concurrency,
                                steal_listen="127.0.0.1:8799")
        ValidatorConfig(concurrency=2, steal_listen="127.0.0.1:8799")

    def test_addresses_must_be_host_port(self):
        # A malformed address must fail here: a pool that cannot bind
        # degrades the whole batch to in-process execution, silently.
        for address in ("localhost", "127.0.0.1:abc", ":8080",
                        "127.0.0.1:70000"):
            with pytest.raises(ValueError, match="HOST:PORT"):
                ValidatorConfig(concurrency=2, steal_listen=address)
        ValidatorConfig(concurrency=2, steal_listen="127.0.0.1:9",
                        cache_dir="proofs")

    def test_network_fault_sites_registered(self):
        for site in ("conn-drop", "conn-delay", "handshake"):
            assert site in faults.SITES


# -- client-side 503 retries -------------------------------------------------

class _FakeResponse:
    def __init__(self, status, body=b"", retry_after=None, lines=()):
        self.status = status
        self._body = body
        self._retry_after = retry_after
        self._lines = list(lines)

    def read(self):
        return self._body

    def getheader(self, name):
        return self._retry_after

    def __iter__(self):
        return iter(self._lines)


class _FakeConnection:
    def close(self):
        pass


class TestClientRetries:
    def wire(self, client, responses):
        calls = []

        def fake_request(method, path, payload=None):
            calls.append(path)
            return _FakeConnection(), responses[min(len(calls) - 1,
                                                    len(responses) - 1)]
        client._request = fake_request
        return calls

    def ok_response(self):
        lines = [
            json.dumps({"type": "record", "name": "f"}).encode() + b"\n",
            json.dumps({"type": "summary", "validated": 1}).encode() + b"\n",
        ]
        return _FakeResponse(200, lines=lines)

    def busy_response(self, retry_after="0.25"):
        return _FakeResponse(503, body=b"queue full", retry_after=retry_after)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ValidationClient().validate(module="m", retries=-1)

    def test_zero_retries_surfaces_busy(self):
        client = ValidationClient()
        self.wire(client, [self.busy_response()])
        with pytest.raises(ServiceBusy) as excinfo:
            client.validate(module="m")
        assert excinfo.value.retry_after == 0.25

    def test_retries_absorb_busy_and_honor_retry_after(self):
        client = ValidationClient()
        calls = self.wire(client, [self.busy_response(),
                                   self.busy_response(),
                                   self.ok_response()])
        sleeps = []
        result = client.validate(module="m", retries=2,
                                 sleep=sleeps.append)
        assert len(calls) == 3
        assert result["summary"]["validated"] == 1
        assert [r["name"] for r in result["records"]] == ["f"]
        # Each wait is floored by the daemon's Retry-After hint.
        assert len(sleeps) == 2
        assert all(delay >= 0.25 for delay in sleeps)

    def test_exhausted_retries_raise_the_last_busy(self):
        client = ValidationClient()
        calls = self.wire(client, [self.busy_response()])
        with pytest.raises(ServiceBusy):
            client.validate(module="m", retries=2, sleep=lambda _d: None)
        assert len(calls) == 3

    def test_non_busy_errors_never_retry(self):
        client = ValidationClient()
        calls = self.wire(client, [_FakeResponse(500, body=b"boom")])
        with pytest.raises(ServiceError, match="HTTP 500"):
            client.validate(module="m", retries=5, sleep=lambda _d: None)
        assert len(calls) == 1
