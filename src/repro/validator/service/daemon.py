"""The validation daemon: asyncio HTTP front-end over one Revalidator.

One :class:`ValidationService` owns one
:class:`~repro.validator.watch.Revalidator` — and with it one executor,
one (optionally persistent) proof cache and the per-function
checkpoint fingerprints — and serves it over a hand-rolled HTTP/1.1
protocol on plain ``asyncio`` streams, so the daemon needs nothing the
standard library does not ship.

Protocol
--------
``POST /validate``
    Body: JSON with either ``"module"`` (LLVM-ish ``.ll`` text) or
    ``"corpus"``/``"scale"`` (a named paper benchmark built
    server-side), plus optional ``"passes"``, ``"label"``,
    ``"functions"``, ``"timeout"`` and ``"max_pairs"``.  Response: 200
    with ``application/x-ndjson`` — one ``{"type": "record", ...}``
    line per function *as it settles* (``signature`` is the record's
    :meth:`~repro.validator.report.FunctionRecord.signature`), then one
    ``{"type": "summary", ...}`` line with the per-request cache delta,
    the shard/engine counters that moved (a counter left out is 0; most
    shard counters belong to the pool and stay 0 in a serial daemon),
    the request's ``pass_steps_run`` / ``pass_steps_reused`` and budget
    telemetry.  Unparseable input is a 400; admission rejection is a
    503 with a ``Retry-After`` header.
``GET /stats``
    Daemon counters: requests/rejections/in-flight, the revalidator's
    run count, cumulative cache counters, engine totals and
    ``pass_steps_run``/``pass_steps_reused`` summed over every request,
    the intake's ``modules_parsed``/``modules_reused`` (see
    :class:`ValidationService`), and the last request's ``shard_stats``.
``POST /shutdown``
    Begin a graceful drain (stop admitting, finish in-flight requests,
    flush the cache) and exit — the remote equivalent of ``SIGTERM``.

Budgets are admission control, not errors: a request that exceeds its
wall-clock or fresh-pair budget still streams a complete record set —
unaffordable verdicts are denied with reason ``"budget-exhausted"``
(never cached) and each record keeps its validated ``kept_prefix``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import sys
import threading
from dataclasses import replace
from typing import Callable, Dict, Hashable, Optional, Tuple

from ...analysis.manager import CHECKPOINT_FINGERPRINTS
from ...errors import ReproError
from ...ir import parse_module
from ...ir.module import Module
from ...transforms.pass_manager import PAPER_PIPELINE
from ..config import DEFAULT_CONFIG, ValidatorConfig
from ..report import FunctionRecord
from ..scheduler import RequestBudget
from ..watch import Revalidator

#: ``Retry-After`` hint (seconds) sent with admission rejections.
RETRY_AFTER = 1


def _record_line(record: FunctionRecord) -> Dict[str, object]:
    """The NDJSON payload for one settled record."""
    return {
        "type": "record",
        "from_cache": record.from_cache,
        "elapsed": (record.result.elapsed
                    if record.result is not None else 0.0),
        "signature": record.signature(),
    }


def _moved(counters: Dict[str, int]) -> Dict[str, int]:
    """The counters that are not zero: a summary line leaves the rest out."""
    return {key: value for key, value in counters.items() if value}


class ValidationService:
    """A long-lived validation daemon sharing one Revalidator.

    The revalidator is not thread-safe, so requests are *admitted*
    concurrently (up to ``config.max_inflight`` queued or running) but
    *executed* serially under an :class:`asyncio.Lock`; validation runs
    on a worker thread (:func:`asyncio.to_thread`) with records streamed
    back through the event loop as they settle (settlement follows the
    request's execution, at every concurrency), so slow validations
    never block the accept loop, ``/stats`` or rejections.

    **Intake.**  Each label has one intake slot holding the content key
    of its last module — the sha256 of the ``.ll`` text, or
    ``("corpus", name, scale)`` — and the parsed (or built)
    :class:`Module`.  A request whose key matches its label's slot
    reuses that object and skips the parser (or ``build_corpus``); a
    new key parses on the event loop, as before, and replaces the slot;
    text that fails to parse is a 400 and leaves the slot alone.  The
    first run of an intake module remembers its functions in
    :data:`~repro.analysis.manager.CHECKPOINT_FINGERPRINTS`, so later
    requests read the fingerprints instead of printing the functions.
    Sharing the object is safe because the revalidator only reads its
    input module, and the module's name — the one field a request
    sets — reaches no record, key or digest.  ``/stats`` counts
    ``modules_parsed`` and ``modules_reused``.  Slots are per label,
    like the revalidator's own per-label state.
    """

    def __init__(self, config: Optional[ValidatorConfig] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.host = host
        #: Requested port (``0`` = ephemeral); rewritten to the bound
        #: port once :meth:`serve` has a listening socket.
        self.port = self.config.service_port if port is None else port
        self.revalidator = Revalidator(self.config)
        self._lock = asyncio.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight = 0
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        # Daemon telemetry, surfaced by /stats.
        self.requests_total = 0
        self.rejected_total = 0
        self.errors_total = 0
        self.client_disconnects = 0
        self.engine_totals: Dict[str, int] = {}
        #: Pipeline steps run / answered from the pass-step memo, summed
        #: over every request.
        self.pass_steps = {"pass_steps_run": 0, "pass_steps_reused": 0}
        self.last_shard_stats: Optional[Dict[str, int]] = None
        #: Label -> (content key, module) of the label's last intake: the
        #: sha256 of the module text, or ``("corpus", name, scale)``.
        self._slots: Dict[str, Tuple[Hashable, Module]] = {}
        #: Intake misses (parsed or built) and hits (slot reused).
        self.intake = {"modules_parsed": 0, "modules_reused": 0}

    # -- request plumbing --------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, headers, body

    @staticmethod
    def _head(status: int, reason: str, content_type: str,
              length: Optional[int] = None,
              extra: Optional[Dict[str, str]] = None) -> bytes:
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 "Connection: close"]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         reason: str, payload: Dict[str, object],
                         extra: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        writer.write(self._head(status, reason, "application/json",
                                len(body), extra))
        writer.write(body)
        await writer.drain()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, _, body = request
            if method == "GET" and path == "/stats":
                await self._send_json(writer, 200, "OK", self.stats())
            elif method == "POST" and path == "/shutdown":
                await self._send_json(writer, 200, "OK",
                                      {"ok": True, "draining": True})
                self.request_stop()
            elif method == "POST" and path == "/validate":
                await self._handle_validate(writer, body)
            else:
                await self._send_json(writer, 404, "Not Found",
                                      {"error": f"no route {method} {path}"})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # pragma: no cover - defensive logging
            self.errors_total += 1
            print(f"service error: {exc!r}", file=sys.stderr)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- the validate endpoint ---------------------------------------------
    def _parse_validate(self, body: bytes) -> Dict[str, object]:
        """Decode and materialize a /validate request (raises ValueError)."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if "corpus" in payload:
            from ...bench.corpus import BENCHMARKS_BY_NAME, build_corpus
            name = payload["corpus"]
            if name not in BENCHMARKS_BY_NAME:
                raise ValueError(
                    f"unknown corpus {name!r} (known: "
                    f"{', '.join(sorted(BENCHMARKS_BY_NAME))})")
            scale = float(payload.get("scale", 0.1))
            key: Hashable = ("corpus", name, scale)

            def materialize() -> Module:
                return build_corpus(BENCHMARKS_BY_NAME[name], scale)
        elif "module" in payload:
            text = payload["module"]
            if not isinstance(text, str):
                raise ValueError("'module' must be .ll text")
            name = payload.get("name") or "module"
            key = hashlib.sha256(text.encode("utf-8")).hexdigest()

            def materialize() -> Module:
                try:
                    return parse_module(text, name=name)
                except ReproError as exc:
                    raise ValueError(f"module does not parse: {exc}")
        else:
            raise ValueError("request needs a 'module' or a 'corpus' field")
        # A corpus module is named after its benchmark, a parsed one
        # after the payload's name: the label falls back to that name.
        label = payload.get("label") or name
        module = self._intake_module(label, key, materialize)
        passes = tuple(payload.get("passes") or PAPER_PIPELINE)
        functions = payload.get("functions")
        timeout = payload.get("timeout", self.config.request_timeout or None)
        max_pairs = payload.get("max_pairs")
        budget = None
        if (timeout is not None and timeout > 0) or max_pairs:
            budget = RequestBudget(timeout=timeout, max_pairs=max_pairs)
        return {"module": module, "name": name, "passes": passes,
                "label": label, "functions": functions, "budget": budget}

    def _intake_module(self, label: str, key: Hashable,
                       materialize: Callable[[], Module]) -> Module:
        """The label's intake module for content ``key``, made on a miss.

        A hit hands back the very :class:`Module` an earlier request
        parsed (or built), so neither the parser nor, once the worker
        thread has remembered its functions' fingerprints, the printer
        runs again.  A miss materializes the module and replaces the
        label's slot; a failed parse raises before the slot is touched.
        """
        slot = self._slots.get(label)
        if slot is not None and slot[0] == key:
            self.intake["modules_reused"] += 1
            return slot[1]
        module = materialize()
        self._slots[label] = (key, module)
        self.intake["modules_parsed"] += 1
        return module

    async def _handle_validate(self, writer: asyncio.StreamWriter,
                               body: bytes) -> None:
        # Admission control: one counter over queued-or-running requests.
        # Rejecting at the door (cheap, with a Retry-After hint) beats an
        # unbounded queue of parsed modules waiting on the lock.
        if self._draining or self._inflight >= self.config.max_inflight:
            self.rejected_total += 1
            reason = ("draining" if self._draining else
                      f"{self._inflight} requests in flight "
                      f"(max_inflight={self.config.max_inflight})")
            await self._send_json(writer, 503, "Service Unavailable",
                                  {"error": "busy", "detail": reason,
                                   "retry_after": RETRY_AFTER},
                                  extra={"Retry-After": str(RETRY_AFTER)})
            return
        self._inflight += 1
        try:
            try:
                request = self._parse_validate(body)
            except ValueError as exc:
                await self._send_json(writer, 400, "Bad Request",
                                      {"error": str(exc)})
                return
            self.requests_total += 1
            await self._stream_validate(writer, request)
        finally:
            self._inflight -= 1

    async def _stream_validate(self, writer: asyncio.StreamWriter,
                               request: Dict[str, object]) -> None:
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Tuple[str, object]]" = asyncio.Queue()

        def emit(record: FunctionRecord) -> None:
            # Called on the worker thread after each record settles.
            loop.call_soon_threadsafe(queue.put_nowait, ("record", record))

        budget: Optional[RequestBudget] = request["budget"]

        def run() -> None:
            try:
                module: Module = request["module"]
                # The module may be an intake slot's, shared with earlier
                # requests: name it as this request's own parse would be
                # (the name is in no record, key or digest; a traced
                # daemon tags its spans with it) and register its
                # functions' fingerprints, so planning reads them instead
                # of printing every function again.  Both run here, under
                # the execution lock, like every other table user.
                module.name = request["name"]
                for function in module.defined_functions():
                    CHECKPOINT_FINGERPRINTS.remember(function)
                _, report = self.revalidator.revalidate(
                    module, request["passes"],
                    label=request["label"],
                    function_names=request["functions"],
                    budget=budget, on_record=emit, assemble=False)
                loop.call_soon_threadsafe(queue.put_nowait, ("done", report))
            except BaseException as exc:
                loop.call_soon_threadsafe(queue.put_nowait, ("error", exc))

        disconnected = False

        async def ship(data: bytes) -> None:
            """Write one chunk unless the client already went away.

            A mid-stream disconnect (the client closed its socket while
            records were still settling) must not kill the request: the
            worker thread keeps running regardless, so the loop below
            simply stops writing, keeps draining the queue until the run
            finishes, and the daemon's bookkeeping (engine totals, last
            shard stats, the inflight decrement in ``_handle_validate``)
            completes exactly as if the client had stayed.
            """
            nonlocal disconnected
            if disconnected:
                return
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                disconnected = True
                self.client_disconnects += 1

        await ship(self._head(200, "OK", "application/x-ndjson"))
        # The revalidator is single-threaded state: serialize requests on
        # the lock, and snapshot the shared cache counters around the run
        # so the summary can report this request's own hit rate.
        async with self._lock:
            before = dict(self.revalidator.cache.stats())
            worker = asyncio.ensure_future(asyncio.to_thread(run))
            try:
                while True:
                    kind, value = await queue.get()
                    if kind == "record":
                        line = json.dumps(_record_line(value)) + "\n"
                        await ship(line.encode("utf-8"))
                    elif kind == "done":
                        # Summarize unconditionally — the totals must be
                        # folded in even when nobody is listening.
                        summary = self._summarize(value, budget, before)
                        await ship((json.dumps(summary) + "\n")
                                   .encode("utf-8"))
                        break
                    else:
                        self.errors_total += 1
                        line = json.dumps({"type": "error",
                                           "message": repr(value)}) + "\n"
                        await ship(line.encode("utf-8"))
                        break
            finally:
                await worker

    def _summarize(self, report, budget: Optional[RequestBudget],
                   before: Dict[str, int]) -> Dict[str, object]:
        """Fold a finished run into the daemon totals; the summary line."""
        after = dict(self.revalidator.cache.stats())
        hits = after.get("hits", 0) - before.get("hits", 0)
        misses = after.get("misses", 0) - before.get("misses", 0)
        total = hits + misses
        for key, value in report.engine_totals().items():
            self.engine_totals[key] = self.engine_totals.get(key, 0) + value
        self.last_shard_stats = dict(report.shard_stats or {})
        pass_steps = {key: self.last_shard_stats.get(key, 0)
                      for key in self.pass_steps}
        for key, value in pass_steps.items():
            self.pass_steps[key] += value
        return {
            "type": "summary",
            "label": report.label,
            "functions": len(report.records),
            "validated": sum(1 for record in report.records
                             if record.validated),
            "summary": report.summary_line(),
            "cache": {"hits": hits, "misses": misses,
                      "hit_rate": (hits / total) if total else 0.0},
            "shard_stats": _moved(self.last_shard_stats),
            "engine_totals": _moved(report.engine_totals()),
            **pass_steps,
            "budget": budget.stats() if budget is not None else None,
        }

    # -- lifecycle ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The /stats payload (also handy for in-process inspection)."""
        return {
            "requests_total": self.requests_total,
            "rejected_total": self.rejected_total,
            "errors_total": self.errors_total,
            "client_disconnects": self.client_disconnects,
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "draining": self._draining,
            "revalidations": self.revalidator.runs,
            "cache": self.revalidator.cache.stats(),
            "engine_totals": dict(self.engine_totals),
            **self.pass_steps,
            **self.intake,
            "shard_stats": self.last_shard_stats,
        }

    def request_stop(self) -> None:
        """Begin a graceful drain (idempotent, signal- and thread-safe)."""
        self._draining = True
        if self._stopped is None:
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if self._loop is not None and running is not self._loop:
            # Called from a signal handler's thread or a test thread:
            # Event.set is not thread-safe, hop onto the serving loop.
            self._loop.call_soon_threadsafe(self._stopped.set)
        else:
            self._stopped.set()

    async def serve(self, ready=None) -> None:
        """Run the daemon until SIGTERM/SIGINT or ``POST /shutdown``.

        Binds, announces the address on stdout, serves, then drains:
        stops accepting, waits for in-flight requests to settle, and
        closes the revalidator — which flushes the persistent cache
        (``save_if_dirty``) so nothing proved is lost to a restart.
        ``ready(service)`` is called once the port is bound (tests).
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stopped = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        print(f"serving on http://{self.host}:{self.port}", flush=True)
        if ready is not None:
            ready(self)
        async with server:
            await self._stopped.wait()
        # Drain: the listening socket is closed, in-flight handlers finish.
        while self._inflight > 0:
            await asyncio.sleep(0.02)
        self.revalidator.close()
        print("drained; cache flushed", flush=True)


def serve_in_thread(service: ValidationService, timeout: float = 10.0
                    ) -> threading.Thread:
    """Run ``service.serve()`` on a daemon thread; return once it is bound.

    The in-process harness the tests use: the caller talks to
    ``service.port`` over real sockets and stops the daemon with
    :meth:`ValidationService.request_stop` (thread-safe via the stored
    loop) or the client's ``shutdown()``.
    """
    bound = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(service.serve(ready=lambda _: bound.set())),
        daemon=True)
    thread.start()
    if not bound.wait(timeout):
        raise RuntimeError("validation service did not bind in time")
    return thread


def main(argv=None) -> int:
    """``python -m repro.validator.service`` — start a validation daemon."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.validator.service",
        description="Long-lived validation daemon (NDJSON over HTTP).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port (default: config service_port; "
                             "0 = ephemeral)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent proof-cache directory or .sqlite "
                             "file")
    parser.add_argument("--concurrency", type=int, default=0,
                        help="worker processes for the executor's pool "
                             "(0 or 1: validate in-process)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="admission bound (0 = reject everything)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        help="default per-request wall-clock budget "
                             "(seconds; 0 = unbounded)")
    args = parser.parse_args(argv)

    try:
        config = replace(
            DEFAULT_CONFIG,
            cache_dir=args.cache_dir,
            concurrency=args.concurrency,
            **({} if args.max_inflight is None
               else {"max_inflight": args.max_inflight}),
            **({} if args.request_timeout is None
               else {"request_timeout": args.request_timeout}),
            **({} if args.port is None else {"service_port": args.port}),
        )
    except ValueError as exc:
        parser.error(str(exc))
    service = ValidationService(config, host=args.host, port=args.port)
    try:
        asyncio.run(service.serve())
    except KeyboardInterrupt:
        pass
    return 0


__all__ = ["ValidationService", "serve_in_thread", "main", "RETRY_AFTER"]
