"""Fault injection and the recovery machinery it drives.

Every test here runs a *seeded* :class:`~repro.validator.faults.FaultPlan`
against real machinery — steal-pool worker supervision, pair watchdog
timeouts, quarantine, sqlite flush retry, daemon
disconnect handling — and asserts the recovery contract: the run
completes, records match the fault-free run (modulo explicitly denied
pairs), and nothing synthetic ever enters the proof cache.
"""

import json
import pickle
import socket
import sqlite3
import time
from dataclasses import replace

import pytest

from repro.bench.corpus import small_test_corpus
from repro.transforms import PAPER_PIPELINE
from repro.validator import faults
from repro.validator.cache import ValidationCache
from repro.validator.config import DEFAULT_CONFIG
from repro.validator.driver import llvm_md, validate_module_batch
from repro.validator.faults import FaultPlan, FaultSpec, InjectedFault
from repro.validator.scheduler import RequestBudget
from repro.validator.scheduler.retry import RetryPolicy, retry_call
from repro.validator.validate import (UNCACHEABLE_REASONS, ValidationResult,
                                      validate_bounded)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.reset()
    yield
    faults.reset()


def signatures(report):
    return [record.signature() for record in report.records]


# -- the plan itself ---------------------------------------------------------
class TestFaultPlan:
    def test_firing_window_is_deterministic(self):
        plan = FaultPlan.of(FaultSpec("pair", "raise", "", 2, 2))
        fired = [faults.should_fire(plan, "pair", "fn") is not None
                 for _ in range(5)]
        assert fired == [False, True, True, False, False]
        # reset() rewinds the schedule to the first visit.
        faults.reset(plan)
        assert faults.should_fire(plan, "pair", "fn") is None
        assert faults.should_fire(plan, "pair", "fn") is not None

    def test_count_zero_fires_forever(self):
        plan = FaultPlan.of(FaultSpec("worker", "crash", "", 1, 0))
        assert all(faults.should_fire(plan, "worker", "x") is not None
                   for _ in range(10))

    def test_match_filters_by_detail(self):
        plan = FaultPlan.of(FaultSpec("pair", "raise", "victim", 1, 0))
        assert faults.should_fire(plan, "pair", "innocent") is None
        assert faults.should_fire(plan, "pair", "victim") is not None
        # Sites are independent: a "pair" spec never fires elsewhere.
        assert faults.should_fire(plan, "worker", "victim") is None

    def test_plan_is_hashable_and_picklable(self):
        plan = FaultPlan.crash_worker(match="fn3", at=2, seed=9)
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("nope", "crash")
        with pytest.raises(ValueError):
            FaultSpec("pair", "explode")
        with pytest.raises(ValueError):
            FaultSpec("pair", "crash", at=0)

    def test_make_error_mapping(self):
        enospc = faults.make_error("enospc", "cache-flush", "")
        assert isinstance(enospc, OSError) and enospc.errno != 0
        locked = faults.make_error("lock", "cache-flush", "")
        assert isinstance(locked, sqlite3.OperationalError)
        assert "locked" in str(locked)
        conn = faults.make_error("connection", "payload", "")
        assert isinstance(conn, ConnectionResetError)
        other = faults.make_error("", "pair", "fn")
        assert isinstance(other, InjectedFault)


# -- bounded retry -----------------------------------------------------------
class TestRetryCall:
    def test_retries_then_succeeds(self):
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        assert retry_call(flaky, policy=policy, sleep=sleeps.append) == "ok"
        assert len(calls) == 3
        assert sleeps == [0.01, 0.02]

    def test_reraises_when_attempts_spent(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)

        def doomed():
            raise ValueError("persistent")

        with pytest.raises(ValueError):
            retry_call(doomed, policy=policy, sleep=lambda _: None)

    def test_retry_if_filters(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry_call(wrong_kind, policy=RetryPolicy(max_attempts=5),
                       retry_if=lambda e: isinstance(e, OSError),
                       sleep=lambda _: None)
        assert len(calls) == 1

    def test_backoff_is_seed_deterministic(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.05)
        assert list(zip(range(3), policy.backoff(7))) == \
            list(zip(range(3), policy.backoff(7)))
        assert next(policy.backoff(7)) != next(policy.backoff(8))

    def test_expired_budget_aborts_retry_loop(self):
        # The satellite contract: an expired RequestBudget must settle
        # denials, not spin a retry loop past its deadline.
        clock = [0.0]
        budget = RequestBudget(timeout=1.0, clock=lambda: clock[0])
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            clock[0] += 2.0  # the failure itself blows the deadline
            raise OSError("transient")

        with pytest.raises(OSError):
            retry_call(flaky, policy=RetryPolicy(max_attempts=10),
                       should_abort=lambda: budget.exhausted,
                       sleep=sleeps.append)
        assert len(calls) == 1  # no retry was scheduled past the deadline
        assert sleeps == []
        assert budget.exhausted


# -- pair timeouts -----------------------------------------------------------
class TestPairTimeout:
    def test_hung_pair_settles_as_timeout(self, parse):
        module = small_test_corpus(functions=2, seed=11)
        functions = [f for f in module.functions.values()
                     if not f.is_declaration]
        plan = FaultPlan.hang_pair(match="", seconds=5.0, at=1, count=1)
        config = replace(DEFAULT_CONFIG, fault_plan=plan, pair_timeout=0.2)
        start = time.monotonic()
        result = validate_bounded(functions[0], functions[0], config)
        assert time.monotonic() - start < 2.0  # interrupted, not slept out
        assert not result.is_success
        assert result.reason == "timeout"

    def test_timeout_results_never_enter_the_cache(self):
        cache = ValidationCache()
        for reason in UNCACHEABLE_REASONS:
            cache.put(("k", reason), ValidationResult(
                function_name="f", is_success=False, reason=reason,
                elapsed=0.0))
        assert all(cache.peek(("k", r)) is None for r in UNCACHEABLE_REASONS)

    def test_serial_run_survives_one_hang(self, mini_corpus):
        _, clean = llvm_md(mini_corpus, PAPER_PIPELINE, strategy="stepwise")
        faults.reset()
        plan = FaultPlan.hang_pair(match="", seconds=5.0, at=1, count=1)
        config = replace(DEFAULT_CONFIG, fault_plan=plan, pair_timeout=0.2,
                         chain_graphs=False)
        _, report = llvm_md(mini_corpus, PAPER_PIPELINE, config=config,
                            strategy="stepwise")
        assert len(report.records) == len(clean.records)
        # The hang touches at most one pair (count=1); a touched record
        # may settle as a "timeout" denial or salvage itself through the
        # whole-query fallback — either way "timeout" appears somewhere
        # in its signature.  Every *untouched* record matches the clean
        # run exactly.
        touched = [sig for sig in signatures(report)
                   if "timeout" in json.dumps(sig)]
        assert len(touched) <= 1
        clean_sigs = {sig["name"]: sig for sig in signatures(clean)}
        for sig in signatures(report):
            if "timeout" not in json.dumps(sig):
                assert sig == clean_sigs[sig["name"]]


# -- worker-pool supervision -------------------------------------------------
class TestStealSupervision:
    def test_killed_worker_respawns_and_run_completes(self, mini_corpus):
        base = replace(DEFAULT_CONFIG, concurrency=2)
        [(_, clean)] = validate_module_batch([mini_corpus], PAPER_PIPELINE,
                                             config=base, strategy="stepwise")
        faults.reset()
        plan = FaultPlan.of(
            FaultSpec("steal-dispatch", "crash", "", 2, 1), seed=7)
        config = replace(base, fault_plan=plan)
        [(_, chaotic)] = validate_module_batch(
            [mini_corpus], PAPER_PIPELINE, config=config, strategy="stepwise")
        shard = chaotic.shard_stats or {}
        assert signatures(chaotic) == signatures(clean)
        assert shard.get("workers_respawned", 0) >= 1
        assert shard.get("item_retries", 0) >= 1
        assert shard.get("pool_degraded", 0) == 0  # no serial degradation

    def test_crashed_local_worker_is_replaced(self, mini_corpus):
        # A "worker"-site crash hard-exits a loopback worker process.
        # Counters are per process, so every worker (replacements too)
        # dies on its second item: the pool must keep replacing dead
        # processes, and with retries to spare every item completes.
        [(_, clean)] = validate_module_batch([mini_corpus], PAPER_PIPELINE,
                                             config=DEFAULT_CONFIG,
                                             strategy="stepwise")
        faults.reset()
        config = replace(DEFAULT_CONFIG, concurrency=2, max_pair_retries=10,
                         fault_plan=FaultPlan.crash_worker(at=2))
        [(_, chaotic)] = validate_module_batch(
            [mini_corpus], PAPER_PIPELINE, config=config, strategy="stepwise")
        shard = chaotic.shard_stats or {}
        assert signatures(chaotic) == signatures(clean)
        assert shard["workers_respawned"] >= 1
        assert shard["pairs_quarantined"] == 0
        assert shard["pool_degraded"] == 0

    def test_poison_pair_is_quarantined(self, mini_corpus):
        victim = next(f.name for f in mini_corpus.functions.values()
                      if not f.is_declaration)
        plan = FaultPlan.crash_worker(match=victim, at=1, count=0)
        config = replace(DEFAULT_CONFIG, concurrency=2,
                         fault_plan=plan, chain_graphs=False,
                         max_pair_retries=1)
        [(_, report)] = validate_module_batch(
            [mini_corpus], PAPER_PIPELINE, config=config, strategy="whole")
        shard = report.shard_stats or {}
        assert shard.get("pairs_quarantined", 0) >= 1
        assert shard.get("pool_degraded", 0) == 0
        by_name = {sig["name"]: sig for sig in signatures(report)}
        assert by_name[victim]["reason"] == "quarantined"
        assert not by_name[victim]["validated"]
        # The quarantine is surgical: every other function still settles
        # with a genuine verdict.
        assert all(sig["reason"] != "quarantined"
                   for name, sig in by_name.items() if name != victim)

    def test_corrupted_payload_retries_the_item(self, mini_corpus):
        base = replace(DEFAULT_CONFIG, concurrency=2)
        [(_, clean)] = validate_module_batch([mini_corpus], PAPER_PIPELINE,
                                             config=base, strategy="stepwise")
        faults.reset()
        config = replace(base, fault_plan=FaultPlan.corrupt_payload())
        [(_, chaotic)] = validate_module_batch(
            [mini_corpus], PAPER_PIPELINE, config=config, strategy="stepwise")
        shard = chaotic.shard_stats or {}
        assert signatures(chaotic) == signatures(clean)
        assert shard.get("item_retries", 0) >= 1
        assert shard.get("pool_degraded", 0) == 0


# -- retries under a request budget -----------------------------------------
class TestPoolRetry:
    """The steal pool's retry machinery must respect a request budget."""

    def test_budget_denials_do_not_spin_retries(self, mini_corpus):
        # Every fresh worker dies on its first item, so each admitted item
        # kills workers until it is quarantined.  The budget admits only
        # two chain items: the denied rest must settle fast as budget
        # denials, not grind through respawn cycles of their own.
        plan = FaultPlan.crash_worker()
        config = replace(DEFAULT_CONFIG, concurrency=2,
                         fault_plan=plan)
        budget = RequestBudget(max_pairs=5)
        [(_, report)] = validate_module_batch(
            [mini_corpus], PAPER_PIPELINE, config=config,
            strategy="stepwise", budget=budget)
        shard = report.shard_stats or {}
        assert len(report.records) > 0
        assert budget.denials >= 1
        reasons = {sig["reason"] for sig in signatures(report)}
        assert "budget-exhausted" in reasons
        assert shard["workers_respawned"] >= 1  # the crash engaged
        admitted = shard["pooled_pairs"] + shard["pairs_quarantined"]
        assert shard["item_retries"] <= config.max_pair_retries * admitted
        assert shard["pool_degraded"] == 0


# -- proof-store flush faults ------------------------------------------------
class TestStoreFaults:
    def _one_entry(self, cache):
        key = cache.key_for("aaa", "bbb", DEFAULT_CONFIG, "")
        cache.put(key, ValidationResult(function_name="f", is_success=True,
                                        reason="", elapsed=0.01))
        return key

    def test_locked_sqlite_flush_retries_then_persists(self, tmp_path):
        plan = FaultPlan.flush_error("lock", at=1, count=1)
        cache = ValidationCache(tmp_path, fault_plan=plan)
        key = self._one_entry(cache)
        assert cache.save() == 1
        stats = cache.stats()
        assert stats.get("store_errors", 0) == 0
        assert stats.get("store_retries", 0) >= 1
        faults.reset()
        fresh = ValidationCache(tmp_path)
        assert fresh.peek(key) is not None  # the retry really flushed

    def test_enospc_gives_up_without_crashing(self, tmp_path):
        plan = FaultPlan.flush_error("enospc", at=1, count=0)
        cache = ValidationCache(tmp_path, fault_plan=plan)
        self._one_entry(cache)
        cache.save()  # must not raise
        assert cache.stats().get("store_errors", 0) >= 1
        assert cache.stats().get("store_retries", 0) == 0  # not transient


# -- daemon disconnect -------------------------------------------------------
MODULE_TEXT = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  ret i32 %b
}
define i32 @g(i32 %y) {
entry:
  %c = add i32 %y, 1
  %d = sub i32 %c, 1
  ret i32 %d
}
"""


class TestDaemonDisconnect:
    def _request(self, port, body):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(b"POST /validate HTTP/1.1\r\nContent-Length: "
                     + str(len(body)).encode() + b"\r\n\r\n" + body)
        return sock

    def _read_all(self, sock):
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        sock.close()
        return data

    def _stats(self, port):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(b"GET /stats HTTP/1.1\r\n\r\n")
        data = self._read_all(sock)
        return json.loads(data.split(b"\r\n\r\n", 1)[1])

    def test_daemon_survives_mid_stream_disconnect(self):
        from repro.validator.service.daemon import (ValidationService,
                                                    serve_in_thread)
        service = ValidationService(replace(DEFAULT_CONFIG), port=0)
        thread = serve_in_thread(service)
        try:
            body = json.dumps({"module": MODULE_TEXT,
                               "label": "disconnect"}).encode()
            # Send a request, read a few head bytes, slam the socket shut
            # while records are still settling.
            sock = self._request(service.port, body)
            sock.recv(16)
            sock.close()
            # The worker finishes in the background; poll until the
            # daemon's bookkeeping settles.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                stats = self._stats(service.port)
                if stats["inflight"] == 0 and stats["client_disconnects"]:
                    break
                time.sleep(0.05)
            assert stats["inflight"] == 0
            assert stats["client_disconnects"] == 1
            assert stats["errors_total"] == 0
            # The daemon still serves complete streams afterwards.
            data = self._read_all(self._request(service.port, body))
            lines = data.split(b"\r\n\r\n", 1)[1].decode().strip().splitlines()
            kinds = [json.loads(line)["type"] for line in lines]
            assert kinds[-1] == "summary"
            assert kinds.count("record") == 2
        finally:
            service.request_stop()
            thread.join(timeout=10)
