"""The TCP steal transport: framing, handshake, requeue and the remote store.

Everything here runs against the real machinery — blocking-socket frames
against real sockets, handshakes against a live
:class:`~repro.validator.scheduler.transport.TcpStealPool` coordinator,
hand-rolled worker connections that die mid-item — and asserts the
transport contract: malformed wire data raises instead of
desynchronizing, incompatible peers are rejected at join time, a
disconnect costs exactly a respawn + requeue with the item delivered
byte-identically to the replacement, and losing the served proof store
degrades to re-validation, never an error.
"""

import json
import pickle
import socket
import struct
import time
from types import SimpleNamespace

import pytest

from repro.validator import faults
from repro.validator.cache import REMOTE_PREFIX, ValidationCache
from repro.validator.config import DEFAULT_CONFIG, ValidatorConfig
from repro.validator.scheduler.remote import ServedStore
from repro.validator.scheduler.steal import BrokenStealPool
from repro.validator.scheduler import transport
from repro.validator.scheduler.transport import (
    MAX_FRAME_BYTES,
    TRANSPORT_SCHEMA,
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
from repro.validator.validate import ValidationResult


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
            pool.send(0, tag=7, item=item)
            outstanding = {0: (7, item)}

            first, frame = self.join_and_take_item(pool)
            _, tag, payload = frame
            assert tag == 7
            assert pickle.loads(payload)[0] == 7
            first.close()  # die holding the lease

            with pytest.raises(BrokenStealPool) as excinfo:
                pool.receive(outstanding)
            assert excinfo.value.worker_id == 0
            pool.respawn(0)
            pool.send(0, tag=7, item=item)

            second, requeued = self.join_and_take_item(pool)
            try:
                # The replacement sees the item byte-for-byte.
                assert requeued == frame
                send_frame(second, ("result", 7, True, "settled"))
                assert pool.receive(outstanding) == (0, 7, True, "settled")
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
            pool.send(0, tag=3, item=item)
            sock, _ = self.join_and_take_item(pool)
            send_frame(sock, ("result", 3, True, "done"))
            assert pool.receive({0: (3, item)}) == (0, 3, True, "done")
            sock.close()
            # The connection died *after* settling: receive must not
            # surface a death for work that is no longer outstanding.
            deadline = time.monotonic() + 5.0
            while pool.coordinator.live_workers > 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            pool.send(0, tag=4, item=item)
            replacement, frame = self.join_and_take_item(pool)
            try:
                assert frame[1] == 4
                send_frame(replacement, ("result", 4, True, "again"))
                assert pool.receive({0: (4, item)}) == (0, 4, True, "again")
            finally:
                replacement.close()
        finally:
            pool.close()

    def test_empty_fleet_breaks_unattributably(self):
        pool = TcpStealPool(1, None, listen="127.0.0.1:0",
                            connect_grace=0.2)
        try:
            pool.send(0, tag=1,
                      item=("pair", SimpleNamespace(name="f"), 0, 1,
                            DEFAULT_CONFIG))
            with pytest.raises(BrokenStealPool) as excinfo:
                pool.receive({0: None})
            assert excinfo.value.worker_id is None
        finally:
            pool.close()


# -- the remote proof store --------------------------------------------------

def make_result(name="f"):
    return ValidationResult(function_name=name, is_success=True,
                            reason="equal")


def make_key(cache, fp_before, fp_after):
    return cache.key_for(fp_before, fp_after, DEFAULT_CONFIG)


class TestRemoteStore:
    @pytest.fixture()
    def served(self, tmp_path):
        pool = TcpStealPool(1, None, listen="127.0.0.1:0",
                            store=ServedStore(tmp_path))
        yield f"{REMOTE_PREFIX}{pool.address[0]}:{pool.address[1]}"
        pool.close()

    def test_roundtrip_and_batched_prefetch(self, served):
        writer = ValidationCache(served)
        key = make_key(writer, "src", "tgt")
        writer.put(key, make_result())
        assert writer.save() == 1

        reader = ValidationCache(served)
        assert reader.prefetch([key]) == 1
        found = reader.get(key, "f")
        assert found is not None and found.is_success
        assert found.reason == "equal"
        stats = reader.stats()
        assert stats["store_get_rpcs"] == 1
        assert stats["store_batched_gets"] == 1
        # The prefetch already answered this key: the get was local.
        assert stats["hits"] == 1

    def test_prefetch_remembers_absences(self, served):
        cache = ValidationCache(served)
        missing = make_key(cache, "a", "b")
        assert cache.prefetch([missing]) == 0
        rpcs_after_prefetch = cache.stats()["store_rpcs"]
        assert cache.get(missing, "f") is None
        # The batch already asked: a later miss costs no round trip.
        assert cache.stats()["store_rpcs"] == rpcs_after_prefetch

    def test_dead_address_degrades_to_memory(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        cache = ValidationCache(f"{REMOTE_PREFIX}127.0.0.1:{port}")
        key = make_key(cache, "src", "tgt")
        assert cache.get(key, "f") is None
        cache.put(key, make_result())
        # Flushing into the void degrades the store tier, silently.
        cache.save_if_dirty()
        assert cache.get(key, "f") is not None
        assert cache.stats()["store_errors"] >= 1

    def test_remote_cache_dir_reaches_every_driver(self, served):
        # A remote:// cache_dir opens the served store in the serial
        # driver and in the incremental revalidator, not just the batch
        # driver.
        from repro.bench import small_test_corpus
        from repro.transforms import PAPER_PIPELINE
        from repro.validator import Revalidator, llvm_md

        config = ValidatorConfig(cache_dir=served)
        module = small_test_corpus(functions=3, seed=5)
        _, cold = llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        assert cold.cache_stats["misses"] > 0
        assert cold.cache_stats["store_rpcs"] > 0
        _, warm = llvm_md(module, PAPER_PIPELINE, config, strategy="stepwise")
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["disk_loaded"] > 0
        assert [r.signature() for r in cold.records] == \
               [r.signature() for r in warm.records]
        revalidator = Revalidator(config)
        try:
            assert revalidator.cache.backend == "remote"
        finally:
            revalidator.close()

    def test_served_store_never_serves_a_remote_path(self):
        # A coordinator whose own cache is remote:// serves an in-memory
        # store instead of resolving the address as a directory.
        store = ServedStore(f"{REMOTE_PREFIX}127.0.0.1:9")
        assert store.kind == "memory"
        store.close()


# -- config validation of the transport knobs --------------------------------

class TestConfigValidation:
    def test_defaults_are_pipe_and_unset(self):
        assert DEFAULT_CONFIG.steal_transport == "pipe"
        assert DEFAULT_CONFIG.steal_listen is None
        assert DEFAULT_CONFIG.cache_dir is None

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="steal transport"):
            ValidatorConfig(steal_transport="carrier-pigeon")

    def test_tcp_requires_a_worker_pool(self):
        # Below concurrency 2 the executor runs in-process and never
        # binds a socket, so tcp there would be silently ignored.
        for concurrency in (0, 1):
            with pytest.raises(ValueError,
                               match="steal_transport.*concurrency"):
                ValidatorConfig(steal_transport="tcp",
                                concurrency=concurrency,
                                steal_listen="127.0.0.1:8799")
        ValidatorConfig(steal_transport="tcp", concurrency=2)

    def test_listen_requires_tcp(self):
        with pytest.raises(ValueError, match="steal_listen"):
            ValidatorConfig(steal_listen="127.0.0.1:9")

    def test_connect_and_listen_are_exclusive(self):
        # Consulting a served store (remote:// cache_dir) and hosting one
        # (steal_listen) contradict each other.
        with pytest.raises(ValueError, match="not both"):
            ValidatorConfig(concurrency=2, steal_transport="tcp",
                            steal_listen="127.0.0.1:9",
                            cache_dir=f"{REMOTE_PREFIX}127.0.0.1:10")
        ValidatorConfig(concurrency=2, steal_transport="tcp",
                        steal_listen="127.0.0.1:9", cache_dir="proofs")

    def test_addresses_must_be_host_port(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            ValidatorConfig(concurrency=2, steal_transport="tcp",
                            steal_listen="localhost")

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
