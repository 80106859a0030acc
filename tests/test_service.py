"""The validation service: parity, admission, budgets, watch-loop fixes.

The contract test for the daemon is record parity: verdict signatures
streamed over the wire must be byte-identical to what
``validate_module_batch`` computes in-process for the same module and
pipeline — on a cheap corpus subset here, on all twelve paper corpora in
``benchmarks/service_guard.py``.  Around it: admission control (503 +
``Retry-After``), per-request budgets settling partial records with
``kept_prefix`` salvage instead of errors (and never poisoning the
cache), the ``/stats`` endpoint, graceful shutdown, and the watch-mode
polling-loop bugfixes (deleted/half-written sources, same-second
rewrites, executor cleanup on error).
"""

import json
import os
import sqlite3
import threading
import time

from http.client import HTTPConnection

import pytest

from repro.analysis.manager import CHECKPOINT_FINGERPRINTS
from repro.bench.corpus import BENCHMARKS_BY_NAME, build_corpus
from repro.errors import ParseError
from repro.ir import parse_module
from repro.ir.printer import print_module
from repro.transforms.pass_manager import PAPER_PIPELINE
from repro.validator import (
    BUDGET_EXHAUSTED,
    DEFAULT_CONFIG,
    SQLITE_FILE_NAME,
    RequestBudget,
    Revalidator,
    ValidationCache,
    ValidatorConfig,
    build_plan,
    is_budget_result,
    validate_module_batch,
)
from repro.validator import watch
from repro.validator.scheduler import admit_work
from repro.validator.service import daemon as daemon_module
from repro.validator.service import (
    ServiceBusy,
    ServiceError,
    ValidationClient,
    ValidationService,
    serve_in_thread,
)
from repro.validator.watch import watch_source

#: Same cheap corpus subset as test_incremental.py; the CI guard extends
#: service parity to all twelve benchmarks.
CORPORA = ("sqlite", "milc", "libquantum")

TINY = """
define i32 @f(i32 %a, i32* %p) {
entry:
  %x = add i32 %a, 1
  %y = add i32 %a, 1
  store i32 %x, i32* %p
  store i32 %y, i32* %p
  %r = add i32 %x, %y
  ret i32 %r
}
"""

#: Two distinct transformed functions (distinct bodies, so their pair
#: keys never dedup/cache-share): the budget salvage tests need a second
#: chain to run out of budget partway through.
TWO_FUNCS = TINY + """
define i32 @g(i32 %a, i32* %p) {
entry:
  %x = mul i32 %a, 3
  %y = mul i32 %a, 3
  store i32 %x, i32* %p
  store i32 %y, i32* %p
  %r = add i32 %x, %y
  ret i32 %r
}
"""


def _norm(signature):
    """Signatures as the wire sees them (tuples become JSON arrays)."""
    return json.loads(json.dumps(signature))


_COLD_MEMO = {}


def _cold_signatures(name, scale=0.1):
    if name not in _COLD_MEMO:
        module = build_corpus(BENCHMARKS_BY_NAME[name], scale)
        results = validate_module_batch([module], PAPER_PIPELINE,
                                        DEFAULT_CONFIG, strategy="stepwise")
        _COLD_MEMO[name] = [_norm(record.signature())
                            for record in results[0][1].records]
    return _COLD_MEMO[name]


# -- RequestBudget / admit_work unit behavior -----------------------------

class TestRequestBudget:
    def test_pair_cap(self):
        budget = RequestBudget(max_pairs=2)
        assert not budget.exhausted and budget.remaining_pairs() == 2
        budget.charge(2)
        assert budget.exhausted and budget.remaining_pairs() == 0
        assert not budget.expired  # pair cap is not the deadline axis

    def test_deadline(self):
        now = [0.0]
        budget = RequestBudget(timeout=5.0, clock=lambda: now[0])
        assert not budget.expired
        now[0] = 5.0
        assert budget.expired and budget.exhausted

    def test_unbounded(self):
        budget = RequestBudget()
        budget.charge(10_000)
        assert not budget.exhausted and budget.remaining_pairs() is None

    def test_synthetic_result(self):
        budget = RequestBudget(max_pairs=1)
        budget.charge()
        result = budget.result("f")
        assert result.reason == BUDGET_EXHAUSTED and not result.is_success
        assert is_budget_result(result)
        assert budget.stats() == {"budget_pairs_spent": 1,
                                  "budget_denied_pairs": 1,
                                  "budget_exhausted": 1}

    def test_admit_work_truncates_pairs_then_chains(self):
        budget = RequestBudget(max_pairs=3)
        pairs = {"k1": 1, "k2": 2, "k3": 3, "k4": 4}
        chains = {("a", "b"): "chain"}
        admitted_pairs, admitted_chains = admit_work(pairs, chains, budget)
        assert len(admitted_pairs) == 3
        assert admitted_chains == {}  # budget spent before the chain

    def test_admit_work_charges_chain_length(self):
        budget = RequestBudget(max_pairs=10)
        _, admitted = admit_work({}, {("a", "b", "c"): "chain"}, budget)
        assert len(admitted) == 1 and budget.pairs_spent == 3


# -- budgeted drivers ------------------------------------------------------

class TestBudgetedValidation:
    def test_batch_salvages_partial_records(self):
        module = parse_module(TWO_FUNCS, name="two")
        budget = RequestBudget(max_pairs=1)
        results = validate_module_batch([module], PAPER_PIPELINE,
                                        DEFAULT_CONFIG, strategy="stepwise",
                                        budget=budget)
        _, report = results[0]
        reasons = [record.signature()["reason"] for record in report.records]
        assert BUDGET_EXHAUSTED in reasons
        assert report.shard_stats["budget_exhausted"] == 1
        assert report.shard_stats["budget_denied_pairs"] > 0
        for record in report.records:
            if record.signature()["reason"] == BUDGET_EXHAUSTED:
                assert not record.validated
                # Salvage invariant: the denied record keeps exactly its
                # validated prefix of per-pass verdicts.
                verdicts = list(record.pass_verdicts.values())
                prefix = 0
                for verdict in verdicts:
                    if not verdict.is_success:
                        break
                    prefix += 1
                assert record.kept_prefix == prefix

    def test_budget_verdicts_never_poison_the_cache(self):
        revalidator = Revalidator(ValidatorConfig())
        try:
            module = parse_module(TWO_FUNCS, name="two")
            budget = RequestBudget(max_pairs=1)
            _, denied = revalidator.revalidate(module, PAPER_PIPELINE,
                                               label="poison", budget=budget)
            assert any(record.signature()["reason"] == BUDGET_EXHAUSTED
                       for record in denied.records)
            # Same request without a budget: every verdict must be real
            # (the denials above were never cached), matching cold.
            module2 = parse_module(TWO_FUNCS, name="two")
            _, clean = revalidator.revalidate(module2, PAPER_PIPELINE,
                                              label="poison")
            assert all(record.signature()["reason"] != BUDGET_EXHAUSTED
                       for record in clean.records)
            cold = validate_module_batch(
                [parse_module(TWO_FUNCS, name="two")], PAPER_PIPELINE,
                DEFAULT_CONFIG, strategy="stepwise")
            assert ([_norm(r.signature()) for r in clean.records]
                    == [_norm(r.signature()) for r in cold[0][1].records])
        finally:
            revalidator.close()

    def test_revalidator_salvages_second_chain(self):
        revalidator = Revalidator(ValidatorConfig())
        try:
            # The executor admits chain items before pairs, each charged
            # for the pairs it covers: a cap covering every item but the
            # last leaves exactly one function's work unaffordable.
            plan = build_plan([parse_module(TWO_FUNCS, name="two")],
                              PAPER_PIPELINE, DEFAULT_CONFIG,
                              ValidationCache(), strategy="stepwise")
            items = list(plan.pending_chains) + [(key,) for key in plan.pending]
            assert len(items) >= 2
            unpaid = {function_plan.function.name
                      for function_plan in plan.function_plans()
                      if set(function_plan.pair_keys) & set(items[-1])}
            assert len(unpaid) == 1
            budget = RequestBudget(
                max_pairs=sum(len(item) for item in items[:-1]))
            _, report = revalidator.revalidate(
                parse_module(TWO_FUNCS, name="two"), PAPER_PIPELINE,
                label="salvage", budget=budget)
            for record in report.records:
                if record.name not in unpaid:
                    assert record.validated
                    continue
                assert record.signature()["reason"] == BUDGET_EXHAUSTED
                # Salvage invariant: the denied record keeps exactly its
                # validated prefix of per-pass verdicts.
                verdicts = list(record.pass_verdicts.values())
                prefix = next((index for index, verdict in enumerate(verdicts)
                               if not verdict.is_success), len(verdicts))
                assert record.kept_prefix == prefix
        finally:
            revalidator.close()

    def test_on_record_streams_in_settlement_order(self):
        revalidator = Revalidator(ValidatorConfig())
        try:
            module = parse_module(TWO_FUNCS, name="two")
            seen = []
            _, report = revalidator.revalidate(
                module, PAPER_PIPELINE, label="stream",
                on_record=lambda record: seen.append(record.name))
            assert seen == [record.name for record in report.records]
        finally:
            revalidator.close()


# -- the watch-loop fixes --------------------------------------------------

class TestWatchLoop:
    def test_source_stamp_missing_file(self, tmp_path):
        assert watch._source_stamp(tmp_path / "gone.ll") is None
        path = tmp_path / "here.ll"
        path.write_text(TINY)
        status = path.stat()
        assert watch._source_stamp(path) == (status.st_mtime_ns,
                                             status.st_size)

    def test_watch_survives_deletion_and_reappearance(self, tmp_path, capsys):
        path = tmp_path / "m.ll"
        path.write_text(TINY)
        seen = []
        actions = iter([
            lambda: path.unlink(),                     # poll 1: gone
            lambda: None,                              # poll 2: still gone
            lambda: path.write_text(TINY + "\n;x\n"),  # poll 3: back, changed
        ])
        runs = watch_source(
            path, lambda: parse_module(path.read_text(), name="m"),
            lambda module: seen.append(module.name),
            sleep=lambda _: next(actions)(), max_polls=3)
        out = capsys.readouterr().out
        assert "disappeared" in out
        assert out.count("disappeared") == 1  # warn once, not per poll
        assert runs == 1 and seen == ["m"]

    def test_watch_survives_half_written_source(self, tmp_path, capsys):
        path = tmp_path / "m.ll"
        path.write_text(TINY)
        seen = []
        actions = iter([
            lambda: path.write_text("define i32 @f("),  # poll 1: truncated
            lambda: path.write_text(TINY + "\n;ok\n"),  # poll 2: completed
        ])
        runs = watch_source(
            path, lambda: parse_module(path.read_text(), name="m"),
            lambda module: seen.append(module.name),
            sleep=lambda _: next(actions)(), max_polls=2)
        assert "could not load" in capsys.readouterr().out
        assert runs == 1 and seen == ["m"]

    def test_watch_load_oserror_does_not_crash(self, tmp_path, capsys):
        path = tmp_path / "m.ll"
        path.write_text(TINY)

        def load():
            raise OSError("transient read failure")

        runs = watch_source(
            path, load, lambda module: pytest.fail("must not revalidate"),
            sleep=lambda _: path.write_text(TINY + "\n;y\n"), max_polls=1)
        assert runs == 0
        assert "could not load" in capsys.readouterr().out

    def test_watch_detects_same_timestamp_rewrite(self, tmp_path):
        path = tmp_path / "m.ll"
        path.write_text(TINY)
        stamp_ns = path.stat().st_mtime_ns
        seen = []

        def rewrite(_):
            # A rewrite the old ``st_mtime ==`` check could never see:
            # identical timestamp, different content.
            path.write_text(TINY + "\n; rewritten\n")
            os.utime(path, ns=(stamp_ns, stamp_ns))

        os.utime(path, ns=(stamp_ns, stamp_ns))
        runs = watch_source(
            path, lambda: parse_module(path.read_text(), name="m"),
            lambda module: seen.append(module.name),
            sleep=rewrite, max_polls=1)
        assert runs == 1 and seen == ["m"]

    def test_main_closes_revalidator_on_error(self, tmp_path, monkeypatch):
        closed = []

        def boom(self, *args, **kwargs):
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(watch.Revalidator, "revalidate", boom)
        monkeypatch.setattr(watch.Revalidator, "close",
                            lambda self: closed.append(True))
        source = tmp_path / "m.ll"
        source.write_text(TINY)
        with pytest.raises(RuntimeError):
            watch.main([str(source), "--once"])
        assert closed == [True]


# -- the daemon ------------------------------------------------------------

@pytest.fixture(scope="module")
def daemon():
    service = ValidationService(
        ValidatorConfig(service_port=0, max_inflight=8))
    thread = serve_in_thread(service)
    yield service
    service.request_stop()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def client(daemon):
    return ValidationClient(port=daemon.port)


class TestServiceParity:
    @pytest.mark.parametrize("name", CORPORA)
    def test_record_parity_with_batch_driver(self, client, name):
        out = client.validate(corpus=name, scale=0.1, label=f"parity-{name}")
        streamed = [record["signature"] for record in out["records"]]
        assert streamed == _cold_signatures(name)

    def test_concurrent_requests_all_hold_parity(self, client):
        results = {}
        errors = []

        def submit(name):
            try:
                out = client.validate(corpus=name, scale=0.1,
                                      label=f"conc-{name}")
                results[name] = [r["signature"] for r in out["records"]]
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append((name, exc))

        threads = [threading.Thread(target=submit, args=(name,))
                   for name in CORPORA]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for name in CORPORA:
            assert results[name] == _cold_signatures(name)

    def test_warm_repeat_hits_cache(self, client):
        client.validate(corpus="sqlite", scale=0.1, label="warm")
        out = client.validate(corpus="sqlite", scale=0.1, label="warm")
        cache = out["summary"]["cache"]
        assert cache["hit_rate"] >= 0.95
        assert out["summary"]["shard_stats"]["pairs_skipped_unchanged"] > 0
        # An identical repeat is answered from the pass-step memo.
        assert out["summary"]["pass_steps_run"] == 0
        assert out["summary"]["pass_steps_reused"] > 0

    def test_summary_leaves_zero_counters_out(self, client):
        out = client.validate(corpus="sqlite", scale=0.1, label="moved")
        full = client.stats()["shard_stats"]
        shard = out["summary"]["shard_stats"]
        assert 0 in full.values()  # pool counters of a serial daemon
        assert shard == {key: value for key, value in full.items() if value}
        engine = out["summary"]["engine_totals"]
        assert engine and 0 not in engine.values()

    def test_module_text_round_trip(self, client):
        out = client.validate(module=TINY, passes=["gvn", "dse"],
                              label="tiny")
        assert [r["signature"]["name"] for r in out["records"]] == ["f"]
        assert out["summary"]["functions"] == 1

    def test_budget_returns_partial_records_not_errors(self, client):
        out = client.validate(module=TWO_FUNCS, passes=list(PAPER_PIPELINE),
                              label="budget", max_pairs=1)
        reasons = [record["signature"]["reason"] for record in out["records"]]
        assert BUDGET_EXHAUSTED in reasons
        assert len(out["records"]) == 2  # every function still reported
        budget = out["summary"]["budget"]
        assert budget["budget_exhausted"] == 1
        assert budget["budget_denied_pairs"] > 0

    def test_bad_module_is_a_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.validate(module="define i32 @broken(")

    def test_missing_payload_is_a_400(self, daemon):
        from http.client import HTTPConnection
        connection = HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        connection.request("POST", "/validate", body=b"{}",
                           headers={"Content-Type": "application/json"})
        assert connection.getresponse().status == 400
        connection.close()

    def test_unknown_route_is_a_404(self, daemon):
        from http.client import HTTPConnection
        connection = HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        connection.request("GET", "/nope")
        assert connection.getresponse().status == 404
        connection.close()

    def test_unknown_corpus_is_a_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.validate(corpus="not-a-benchmark")

    def test_stats_endpoint(self, client, daemon):
        for _ in range(2):
            client.validate(module=TINY, passes=["gvn", "dse"], label="stats")
        stats = client.stats()
        assert stats["requests_total"] >= 1
        assert stats["max_inflight"] == 8
        assert stats["revalidations"] == daemon.revalidator.runs
        assert "hits" in stats["cache"]
        assert stats["engine_totals"]  # accumulated across requests
        assert stats["pass_steps_run"] > 0
        assert stats["pass_steps_reused"] > 0


class TestIntake:
    """One intake slot per label: repeats reuse the parsed module."""

    @pytest.fixture
    def fresh(self):
        """A factory of fresh daemons, all stopped at teardown."""
        started = []

        def start():
            service = ValidationService(
                ValidatorConfig(service_port=0, max_inflight=8))
            started.append((service, serve_in_thread(service)))
            return service

        yield start
        for service, thread in started:
            service.request_stop()
            thread.join(timeout=10)

    @staticmethod
    def _post(service, payload):
        """POST /validate; ``(status, record signatures as JSON text)``."""
        connection = HTTPConnection("127.0.0.1", service.port, timeout=120)
        try:
            connection.request("POST", "/validate",
                               body=json.dumps(payload).encode("utf-8"),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        if response.status != 200:
            return response.status, None
        events = [json.loads(line) for line in body.splitlines() if line]
        assert events[-1]["type"] == "summary"
        return 200, json.dumps([event["signature"] for event in events
                                if event["type"] == "record"])

    @staticmethod
    def _count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_same_text_under_two_names_parses_once(self, fresh, monkeypatch):
        text = print_module(build_corpus(BENCHMARKS_BY_NAME["sqlite"], 0.1))
        service = fresh()
        parses = self._count_calls(monkeypatch, daemon_module, "parse_module")
        status, first = self._post(service, {"module": text, "name": "a",
                                             "label": "shared"})
        assert status == 200
        status, second = self._post(service, {"module": text, "name": "b",
                                              "label": "shared"})
        assert status == 200
        assert len(parses) == 1
        stats = service.stats()
        assert (stats["modules_parsed"], stats["modules_reused"]) == (1, 1)
        # The reused module was remembered on its first run: no function
        # of it is printed again.
        module = service._slots["shared"][1]
        assert all(CHECKPOINT_FINGERPRINTS.get(function) is not None
                   for function in module.defined_functions())
        # Byte-identical to what a fresh daemon answers for the same text.
        status, cold = self._post(fresh(), {"module": text, "name": "b",
                                            "label": "shared"})
        assert status == 200
        assert second == cold
        assert first == cold

    def test_concurrent_repeats_share_one_module(self, fresh):
        # More clients than cores send one text under one label and
        # different names: every request runs on the one intake module,
        # renamed per run, and all answer alike.
        import sys

        text = print_module(build_corpus(BENCHMARKS_BY_NAME["milc"], 0.1))
        service = fresh()
        results, errors = {}, []

        def submit(index):
            try:
                results[index] = self._post(service, {
                    "module": text, "name": f"n{index}", "label": "same"})
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit, args=(index,))
                       for index in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert {status for status, _ in results.values()} == {200}
        assert len({records for _, records in results.values()}) == 1
        stats = service.stats()
        assert (stats["modules_parsed"], stats["modules_reused"]) == (1, 5)

    def test_changed_text_reparses_and_replaces_the_slot(self, fresh,
                                                         monkeypatch):
        service = fresh()
        parses = self._count_calls(monkeypatch, daemon_module, "parse_module")
        for text in (TINY, TWO_FUNCS, TWO_FUNCS, TINY):
            assert self._post(service, {"module": text, "label": "L",
                                        "passes": ["gvn", "dse"]})[0] == 200
        # TINY -> TWO_FUNCS replaced the slot, so TINY parses again.
        assert len(parses) == 3
        stats = service.stats()
        assert (stats["modules_parsed"], stats["modules_reused"]) == (3, 1)
        assert [f.name for f in service._slots["L"][1].defined_functions()
                ] == ["f"]

    def test_unparsable_text_is_a_400_and_keeps_the_slot(self, fresh):
        service = fresh()
        payload = {"module": TINY, "label": "L", "passes": ["gvn", "dse"]}
        assert self._post(service, payload)[0] == 200
        kept = service._slots["L"]
        for broken in ("define i32 @broken(", 42):
            assert self._post(service, {"module": broken,
                                        "label": "L"})[0] == 400
        assert service._slots["L"] is kept
        assert self._post(service, payload)[0] == 200
        stats = service.stats()
        assert (stats["modules_parsed"], stats["modules_reused"]) == (1, 1)

    def test_repeated_corpus_payload_is_built_once(self, fresh, monkeypatch):
        from repro.bench import corpus

        service = fresh()
        builds = self._count_calls(monkeypatch, corpus, "build_corpus")
        payload = {"corpus": "libquantum", "scale": 0.1}
        first = self._post(service, payload)
        assert first == self._post(service, payload)
        assert first[1] == json.dumps(_cold_signatures("libquantum"))
        assert len(builds) == 1
        # Another scale is another module under the same label.
        assert self._post(service, {"corpus": "libquantum",
                                    "scale": 0.2})[0] == 200
        assert len(builds) == 2
        stats = service.stats()
        assert (stats["modules_parsed"], stats["modules_reused"]) == (2, 1)

    def test_revalidate_does_not_remember_its_input(self):
        # Only the daemon's intake modules are known-immutable; a caller's
        # module may be edited between runs, so its functions' fingerprints
        # must never be memoized for it.
        module = parse_module(TWO_FUNCS)
        revalidator = Revalidator(ValidatorConfig())
        try:
            revalidator.revalidate(module, ["gvn", "dse"], label="direct")
        finally:
            revalidator.close()
        assert all(CHECKPOINT_FINGERPRINTS.get(function) is None
                   for function in module.defined_functions())


class TestAdmissionControl:
    def test_reject_all_when_max_inflight_is_zero(self):
        service = ValidationService(
            ValidatorConfig(service_port=0, max_inflight=0))
        thread = serve_in_thread(service)
        try:
            client = ValidationClient(port=service.port)
            with pytest.raises(ServiceBusy) as excinfo:
                client.validate(corpus="libquantum", scale=0.1)
            assert excinfo.value.retry_after >= 1.0
            assert client.stats()["rejected_total"] == 1
        finally:
            service.request_stop()
            thread.join(timeout=10)

    def test_queue_full_rejects_with_retry_after(self):
        import asyncio

        service = ValidationService(
            ValidatorConfig(service_port=0, max_inflight=1))
        thread = serve_in_thread(service)
        try:
            client = ValidationClient(port=service.port)
            # Hold the revalidator lock so an admitted request occupies
            # the one in-flight slot deterministically.
            asyncio.run_coroutine_threadsafe(
                service._lock.acquire(), service._loop).result(timeout=5)
            first = {}
            blocked = threading.Thread(
                target=lambda: first.update(
                    client.validate(corpus="libquantum", scale=0.1,
                                    label="held")))
            blocked.start()
            deadline = time.monotonic() + 5
            while service._inflight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service._inflight == 1
            with pytest.raises(ServiceBusy):
                client.validate(corpus="libquantum", scale=0.1)
            service._loop.call_soon_threadsafe(service._lock.release)
            blocked.join(timeout=60)
            assert first["summary"]["functions"] >= 1
            assert client.stats()["rejected_total"] == 1
        finally:
            service.request_stop()
            thread.join(timeout=10)


class TestShutdown:
    def test_shutdown_drains_and_saves(self, tmp_path):
        cache_dir = tmp_path / "proofs"
        service = ValidationService(
            ValidatorConfig(service_port=0, max_inflight=2,
                            cache_dir=str(cache_dir)))
        thread = serve_in_thread(service)
        client = ValidationClient(port=service.port)
        client.validate(corpus="libquantum", scale=0.1)
        assert client.shutdown()["draining"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()
        # The cache was opened on the main thread and used from the
        # request worker thread; the store must have followed it there.
        stats = service.revalidator.cache.stats()
        assert stats["store_errors"] == 0
        # The drain's save_if_dirty persisted the proofs.
        conn = sqlite3.connect(str(cache_dir / SQLITE_FILE_NAME))
        try:
            rows = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        finally:
            conn.close()
        assert rows > 0
        assert rows == stats["disk_stored"]
        # And a drained daemon no longer answers.
        with pytest.raises(ServiceError):
            client.stats()


class TestCommandLine:
    def test_negative_concurrency_fails_at_argument_parsing(self, capsys,
                                                           monkeypatch):
        from repro.validator.service import daemon
        from repro.validator.service.daemon import main

        monkeypatch.setattr(daemon, "ValidationService", lambda *a, **k:
                            pytest.fail("daemon started with --concurrency -3"))
        with pytest.raises(SystemExit) as excinfo:
            main(["--port", "0", "--concurrency", "-3"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "concurrency must be >= 0" in capsys.readouterr().err
