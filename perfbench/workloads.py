"""The benchmark's two workloads, their correctness checks and metrics.

See ``NOTES.md`` in this directory for why each workload exists and which
layers it stresses or bypasses.  Everything here drives the library only
through its public entry points: ``validate_module_batch`` in-process, and
the validation daemon over HTTP.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.corpus import BENCHMARKS_BY_NAME, PAPER_BENCHMARKS, build_corpus
from repro.errors import InterpreterError
from repro.ir import Interpreter
from repro.ir.instructions import Branch
from repro.ir.module import Function, Module
from repro.ir.printer import print_module
from repro.transforms.pass_manager import PAPER_PIPELINE
from repro.validator import DEFAULT_CONFIG, ValidatorConfig, validate_module_batch

from tracer import SpanRecorder, layer_totals, span_from_row

HERE = os.path.dirname(os.path.abspath(__file__))

#: Reasons that mean an operation failed rather than a pair being rejected.
FAILED_REASONS = frozenset({"build-error", "normalize-error", "timeout",
                            "quarantined", "budget-exhausted"})

#: Functions with more conditional branches than this are left out of every
#: workload.  At scale 0.1 that is gcc's ``fn0000`` (46) and ``fn0002`` (36),
#: whose gate-translation blowup costs ~25 s and ~10 s stepwise: one of them
#: is longer than a run may take, and either would leave a run only one or
#: two sweeps to take a median over.  gcc's ``fn0001`` (35) stays in and
#: carries a milder blowup, enough to keep graph build the largest layer.
MAX_CONDITIONAL_BRANCHES = 35

#: Argument vectors per accepted function for the interpreter oracle.
ORACLE_ARGUMENT_SETS = 4
ORACLE_MAX_STEPS = 20_000

#: Client connections of ``service-edits`` (one load-generating process).
SERVICE_CLIENTS = 2
REQUEST_TIMEOUT_S = 120.0
DAEMON_START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" or "service"
    scale: float
    corpora: Tuple[str, ...]
    strategy: str = "stepwise"
    config: ValidatorConfig = DEFAULT_CONFIG
    #: One cold call per corpus rather than one for all of them (see
    #: ``fastest_sweep``).
    per_corpus: bool = False


ALL_CORPORA = tuple(spec.name for spec in PAPER_BENCHMARKS)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("stepwise-serial", "batch", 0.1, ALL_CORPORA, per_corpus=True),
        Workload("service-edits", "service", 0.05,
                 tuple(name for name in ALL_CORPORA if name != "gcc")),
    )
}


def edit_pipelines(passes: Sequence[str] = PAPER_PIPELINE) -> List[Tuple[str, ...]]:
    """The pipelines one edit away: drop one pass, or swap two adjacent."""
    edits = [tuple(passes[:i]) + tuple(passes[i + 1:]) for i in range(len(passes))]
    for i in range(len(passes) - 1):
        swapped = list(passes)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        edits.append(tuple(swapped))
    return edits


#: The edits a ``service-edits`` round sends for every corpus: every fourth
#: one of the 13 (two drops, two swaps), so that one run holds several
#: identical rounds, each on a fresh daemon.
SERVICE_EDITS = tuple(edit_pipelines()[::4])


def conditional_branches(function: Function) -> int:
    return sum(1 for inst in function.instructions()
               if isinstance(inst, Branch) and inst.is_conditional)


def build_inputs(workload: Workload, scale: float
                 ) -> Tuple[List[Module], List[List[str]]]:
    """The paper corpora (corpus generation plus mem2reg) and the selection."""
    modules = [build_corpus(BENCHMARKS_BY_NAME[name], scale)
               for name in workload.corpora]
    selections = [[function.name for function in module.defined_functions()
                   if conditional_branches(function) <= MAX_CONDITIONAL_BRANCHES]
                  for module in modules]
    return modules, selections


def timed_setup(workload: Workload, scale: float, repeats: int = 5):
    """Build the inputs ``repeats`` times; the median time and the last copy."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        built = build_inputs(workload, scale)
        times.append(time.perf_counter() - start)
    return statistics.median(times), built


# -- correctness checks ----------------------------------------------------
def observe(module: Module, function: Function, args: Sequence[int]):
    """Return value and final globals, or ``None`` when execution traps."""
    interpreter = Interpreter(module, max_steps=ORACLE_MAX_STEPS)
    try:
        result = interpreter.run(function, list(args))
    except InterpreterError:
        return None
    memory = tuple(interpreter.memory.get(interpreter.global_addresses[name])
                   for name in sorted(interpreter.global_addresses))
    return result.return_value, memory


def oracle_disagreements(original: Module, optimized: Module,
                         names: Sequence[str], rng: random.Random) -> List[str]:
    """Accepted functions whose optimized body computes something else.

    The paper's guarantee is partial equivalence: where both versions run
    to completion they agree.  Inputs on which either side traps or runs
    out of steps constrain nothing.
    """
    disagreements = []
    for name in names:
        before = original.get_function(name)
        after = optimized.get_function(name)
        for _ in range(ORACLE_ARGUMENT_SETS):
            args = [rng.randint(-16, 64) for _ in before.args]
            expected = observe(original, before, args)
            if expected is None:
                continue
            actual = observe(optimized, after, args)
            if actual is not None and actual != expected:
                disagreements.append(f"{original.name}/@{name}{tuple(args)}")
                break
    return disagreements


def signature_digest(rows: Sequence[Tuple[object, ...]]) -> str:
    """sha256 over canonical JSON of sorted ``(key..., signature)`` rows."""
    canonical = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()


def expected_digest(workload: str, scale: float) -> Optional[str]:
    with open(os.path.join(HERE, "expected_digests.json")) as handle:
        return json.load(handle).get(f"{workload}@{scale:g}")


def record_failed(signature: Dict[str, object]) -> bool:
    reasons = [signature.get("reason")]
    reasons += [reason for _, reason in signature.get("pass_verdicts", {}).values()]
    return any(reason in FAILED_REASONS for reason in reasons)


def validated_pct(signatures: Sequence[Dict[str, object]]) -> float:
    transformed = [s for s in signatures if any(s["transformed_by"].values())]
    if not transformed:
        return 100.0
    return 100.0 * sum(1 for s in transformed if s["validated"]) / len(transformed)


def percentile(values: Sequence[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- batch workloads ---------------------------------------------------------
@dataclass
class Sweep:
    """What one cold sweep leaves behind once its modules are dropped."""

    #: Seconds of each timed ``validate_module_batch`` call, by its first label.
    times: Dict[str, float]
    rows: List[Tuple[str, Dict[str, object]]]
    engine: Dict[str, int]
    chain: Dict[str, int]
    cache: Dict[str, int]
    shard: Dict[str, int]
    busy_s: float

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def _add(totals: Dict[str, int], counters: Dict[str, int]) -> None:
    for key, value in counters.items():
        totals[key] = totals.get(key, 0) + value


def fastest_sweep(sweeps: Sequence[Sweep]) -> float:
    """The sum over a sweep's calls of each call's fastest time in ``sweeps``.

    The host's cores switch between a fast and a ~1.7x slower state every
    few seconds, independently of each other (see ``NOTES.md``), so the
    shorter the timed call, the surer some repeat of it ran fast throughout.
    """
    return sum(min(sweep.times[key] for sweep in sweeps) for key in sweeps[0].times)


def _sweep(workload: Workload, scale: float):
    """Cold ``validate_module_batch`` calls; inputs are built untimed."""
    modules, selections = build_inputs(workload, scale)
    labels = [module.name for module in modules]
    if workload.per_corpus:
        calls = [([module], [label], [selection])
                 for module, label, selection in zip(modules, labels, selections)]
    else:
        calls = [(modules, labels, selections)]
    sweep = Sweep({}, [], {}, {}, {}, {}, 0.0)
    results = []
    for call_modules, call_labels, call_selections in calls:
        start = time.perf_counter()
        call_results = validate_module_batch(
            call_modules, PAPER_PIPELINE, workload.config, labels=call_labels,
            strategy=workload.strategy, function_names=call_selections)
        sweep.times[call_labels[0]] = time.perf_counter() - start
        results += call_results
        # Every report of one call carries that call's cache and shard stats.
        report = call_results[0][1]
        _add(sweep.cache, report.cache_stats or {})
        shard = report.shard_stats or {}
        _add(sweep.shard, {"distinct_pairs": shard.get("distinct_pairs", 0)})
        sweep.shard["workers"] = max(sweep.shard.get("workers", 0), shard.get("workers", 0))
    for _, report in results:
        sweep.rows += [(report.label, json.loads(json.dumps(record.signature())))
                       for record in report.records]
        _add(sweep.engine, report.engine_totals())
        _add(sweep.chain, report.chain_totals())
        sweep.busy_s += sum(record.result.elapsed for record in report.records
                            if record.result is not None and not record.from_cache)
    return sweep, modules, results


def _sweeps(workload: Workload, scale: float, seconds: float,
            recorder: Optional[SpanRecorder] = None):
    """Cold sweeps until ``seconds`` have passed; the last one's modules too.

    With a ``recorder`` every other sweep is traced, so the untraced and
    the traced sweeps see the same drift in machine speed.
    """
    untraced: List[Sweep] = []
    traced: List[Sweep] = []
    began = time.perf_counter()
    while not untraced or time.perf_counter() - began < seconds:
        sweep, modules, results = _sweep(workload, scale)
        untraced.append(sweep)
        if recorder is not None:
            with recorder:
                traced.append(_sweep(workload, scale)[0])
    return untraced, traced, modules, results


def _batch_layer_metrics(spans, sweeps: Sequence[Sweep]) -> Dict[str, float]:
    units = len(sweeps)
    totals = layer_totals(spans)
    metrics = per_layer_times(totals, units)
    counts = analysis_counts(spans)
    engine: Dict[str, int] = {}
    chain: Dict[str, int] = {}
    cache: Dict[str, int] = {}
    for sweep in sweeps:
        _add(engine, sweep.engine)
        _add(chain, sweep.chain)
        _add(cache, sweep.cache)
    workers = max(1, sweeps[0].shard.get("workers", 0))
    execute_s = totals.get("execute", {}).get("inclusive_s", 0.0)
    busy_s = sum(sweep.busy_s for sweep in sweeps)
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics.update({
        "analysis.computed": counts["computed"] / units,
        "analysis.reused": counts["reused"] / units,
        "build.nodes_built": engine.get("nodes_built", 0) / units,
        "normalize.rule_invocations": engine.get("rule_invocations", 0) / units,
        "normalize.rewrites": engine.get("rewrites", 0) / units,
        "normalize.runs": engine.get("normalize_runs", 0) / units,
        "chain.normalizations_saved": chain.get("chain_normalizations_saved", 0) / units,
        "execute.distinct_pairs": sum(s.shard.get("distinct_pairs", 0) for s in sweeps) / units,
        "execute.busy_pct": (100.0 * busy_s / (workers * execute_s)) if execute_s else 0.0,
        "cache.hit_pct": (100.0 * cache.get("hits", 0) / lookups) if lookups else 0.0,
        "cache.lookups": lookups / units,
        "cache.store_errors": cache.get("store_errors", 0) / units,
        "cache.bytes_written": cache.get("store_bytes_written", 0) / units,
    })
    return metrics


def run_batch(workload: Workload, seed: int, seconds: float, trace: bool,
              scale: float) -> Tuple[Dict[str, float], int, int, Dict[str, object]]:
    setup_s, _ = timed_setup(workload, scale)
    recorder = SpanRecorder() if trace else None
    untraced, traced, modules, results = _sweeps(workload, scale, seconds, recorder)

    # Correctness, outside every timed region.
    rows = [row for sweep in untraced + traced for row in sweep.rows]
    attempted = len(rows)
    failed = sum(record_failed(signature) for _, signature in rows)
    digests = {signature_digest(sweep.rows) for sweep in untraced + traced}
    rng = random.Random(seed)
    disagreements: List[str] = []
    for module, (optimized, report) in zip(modules, results):
        accepted = [record.name for record in report.records
                    if record.transformed and record.validated]
        disagreements += oracle_disagreements(module, optimized, accepted, rng)
    expected = expected_digest(workload.name, scale)
    digest_ok = len(digests) == 1 and (expected is None or expected in digests)
    failed += len(disagreements) + (not digest_ok)

    walls = [sweep.wall for sweep in untraced]
    info = {"sweeps": len(untraced), "traced_sweeps": len(traced),
            "sweep_walls": walls, "digest": sorted(digests),
            "digest_expected": expected, "oracle_disagreements": disagreements}
    if trace:
        metrics = _batch_layer_metrics(recorder.spans, traced)
        metrics["trace_overhead_pct"] = 100.0 * (
            fastest_sweep(traced) / fastest_sweep(untraced) - 1.0)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": fastest_sweep(untraced),
            "validated_pct": validated_pct([signature for _, signature in untraced[0].rows]),
            "success_pct": 100.0 * (1.0 - failed / max(1, attempted)),
            "peak_rss_mb": peak_rss_mb(),
        }
    return metrics, attempted, failed, info


def per_layer_times(totals: Dict[str, Dict[str, float]], units: int) -> Dict[str, float]:
    """Self times and call counts per unit of work (a sweep or a schedule)."""
    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0.0) / units

    metrics = {f"{layer}.self_s": get(layer, "self_s")
               for layer in ("transforms", "analysis", "gated", "build", "normalize",
                             "validate", "plan", "settle", "cache", "watch", "parse")}
    metrics.update({
        "transforms.calls": get("transforms", "calls"),
        "gated.calls": get("gated", "calls"),
        "build.calls": get("build", "calls"),
        "execute.s": get("execute", "inclusive_s"),
    })
    return metrics


def analysis_counts(spans) -> Dict[str, int]:
    """Analyses computed vs. answered from the manager, counted from spans."""
    computing = {span.parent for span in spans
                 if span.name == "compute_function_analyses"}
    lookups = [span for span in spans if span.name == "AnalysisManager.analyses_for"]
    return {"computed": sum(1 for span in spans
                            if span.name == "compute_function_analyses"),
            "reused": sum(1 for span in lookups if span.id not in computing)}


# -- service workload --------------------------------------------------------
class Daemon:
    """A validation daemon subprocess (optionally traced through the launcher)."""

    def __init__(self, work_dir: str, traced: bool) -> None:
        self.spans_path = os.path.join(work_dir, "spans.json") if traced else None
        self.log_path = os.path.join(work_dir, "daemon.log")
        cache_dir = os.path.join(work_dir, "cache")
        os.makedirs(cache_dir, exist_ok=True)
        args = ["--port", "0", "--cache-dir", cache_dir]
        if traced:
            command = [sys.executable, os.path.join(HERE, "daemon_launcher.py"),
                       "--spans-out", self.spans_path, "--"] + args
        else:
            command = [sys.executable, "-m", "repro.validator.service"] + args
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, stdout=self._log,
                                        stderr=subprocess.STDOUT, env=env)
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        while time.monotonic() < deadline and self.process.poll() is None:
            with open(self.log_path) as handle:
                match = re.search(r"serving on http://[^:]+:(\d+)", handle.read())
            if match:
                return int(match.group(1))
            time.sleep(0.05)
        self._kill()
        raise RuntimeError("validation daemon did not announce a port")

    def _kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()

    def stats(self) -> Dict[str, object]:
        connection = HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> bool:
        """Drain the daemon; True when it exited cleanly on its own."""
        clean = False
        try:
            connection = HTTPConnection("127.0.0.1", self.port, timeout=30)
            connection.request("POST", "/shutdown", body=b"{}")
            connection.getresponse().read()
            connection.close()
            clean = self.process.wait(timeout=60) == 0
        except (OSError, subprocess.TimeoutExpired):
            pass
        self._kill()
        return clean

    def spans(self):
        with open(self.spans_path) as handle:
            return [span_from_row(row) for row in json.load(handle)]


def post_validate(port: int, payload: Dict[str, object]):
    """POST /validate; ``(status, records, summary)`` from the NDJSON stream."""
    connection = HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("POST", "/validate", body=json.dumps(payload).encode("utf-8"),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        if response.status != 200:
            response.read()
            return response.status, [], None
        records, summary = [], None
        for raw in response:
            event = json.loads(raw) if raw.strip() else {}
            if event.get("type") == "record":
                records.append(event)
            elif event.get("type") == "summary":
                summary = event
            elif event.get("type") == "error":
                return 500, records, None
        return 200, records, summary
    finally:
        connection.close()


@dataclass
class Request:
    tag: str
    kind: str  # "prime", "edit" or "warm"
    label: str
    passes: Tuple[str, ...]
    start: float = 0.0
    end: float = 0.0
    status: int = 0
    signatures: Optional[List[Dict[str, object]]] = None
    shard: Optional[Dict[str, object]] = None
    cache: Optional[Dict[str, int]] = None
    engine: Optional[Dict[str, int]] = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.end - self.start)


def send(port: int, request: Request, text: str) -> Request:
    request.start = time.perf_counter()
    try:
        status, records, summary = post_validate(port, {
            "module": text, "name": request.tag, "label": request.label,
            "passes": list(request.passes)})
    except (OSError, HTTPException, ValueError):
        status, records, summary = 0, [], None
    request.end = time.perf_counter()
    request.status = status if summary is not None or status != 200 else 500
    request.signatures = [record["signature"] for record in records]
    if summary is not None:
        request.shard = summary.get("shard_stats") or {}
        request.cache = summary.get("cache") or {}
        request.engine = summary.get("engine_totals") or {}
    return request


def schedule(corpora: Sequence[str], rng: random.Random) -> List[List[Tuple[str, Tuple[str, ...]]]]:
    """Per client: every (corpus, edit pipeline) it owns, in seeded order."""
    owned = list(corpora)
    plans = []
    for client in range(SERVICE_CLIENTS):
        combos = [(label, edit) for label in owned[client::SERVICE_CLIENTS]
                  for edit in SERVICE_EDITS]
        rng.shuffle(combos)
        plans.append(combos)
    return plans


@dataclass
class Round:
    """One daemon's life: start and priming (set-up), then the schedule."""

    setup_s: float
    wall: float
    priming: Dict[str, Request]
    requests: List[Request]
    spans: list
    clean: bool
    store: Dict[str, int]


def fastest_schedule(rounds: Sequence[Round]) -> float:
    """The slowest client's schedule with every request at its fastest.

    Rounds send the same requests (same tags, same daemon state per corpus)
    to fresh daemons, so, as in ``fastest_sweep``, each request's fastest
    repeat is taken; a client's schedule is the sum of its requests.
    """
    fastest: Dict[str, float] = {}
    for round_ in rounds:
        for request in round_.requests:
            fastest[request.tag] = min(fastest.get(request.tag, float("inf")),
                                       request.end - request.start)
    clients: Dict[str, float] = {}
    for tag, seconds in fastest.items():
        client = tag.split("-")[0]
        clients[client] = clients.get(client, 0.0) + seconds
    return max(clients.values())


def serve_round(texts: Dict[str, str], traced: bool, rng: random.Random,
                work_root: str) -> Round:
    """Start a daemon, prime it, run the client schedule, drain it."""
    work_dir = tempfile.mkdtemp(dir=work_root)
    start = time.perf_counter()
    daemon = Daemon(work_dir, traced)
    store_before = store_after = {}
    try:
        priming = {label: send(daemon.port, Request(f"prime-{label}", "prime", label,
                                                     PAPER_PIPELINE), text)
                   for label, text in texts.items()}
        setup_s = time.perf_counter() - start
        store_before = daemon.stats()["cache"]
        plans = schedule(list(texts), rng)
        done: List[List[Request]] = [[] for _ in plans]

        def client(index: int) -> None:
            for number, (label, edit) in enumerate(plans[index]):
                for kind, passes in (("edit", edit), ("warm", PAPER_PIPELINE)):
                    tag = f"c{index}-{number}-{kind}"
                    done[index].append(send(daemon.port,
                                            Request(tag, kind, label, passes),
                                            texts[label]))

        began = time.perf_counter()
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
        store_after = daemon.stats()["cache"]
    finally:
        clean = daemon.stop()
    spans = daemon.spans() if traced and clean else []
    shutil.rmtree(work_dir, ignore_errors=True)
    requests = [request for client_requests in done for request in client_requests]
    store = {key: store_after.get(key, 0) - store_before.get(key, 0)
             for key in ("store_errors", "store_bytes_written")}
    return Round(setup_s, wall, priming, requests, spans, clean, store)


def _service_checks(priming: Dict[str, Request], requests: Sequence[Request]):
    """Failed operations and the signature digest of one schedule."""
    failed = 0
    rows = []
    for request in list(priming.values()) + list(requests):
        bad = request.status != 200 or any(record_failed(s) for s in request.signatures)
        if request.kind == "warm":
            bad = bad or request.signatures != priming[request.label].signatures
        failed += bad
        rows += [(request.label, list(request.passes), s) for s in request.signatures]
    return failed, signature_digest(rows)


def _service_layer_metrics(rounds: Sequence[Round]) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds, per round.

    Span ids restart in every daemon, so spans are summed round by round.
    """
    units = len(rounds)
    totals: Dict[str, Dict[str, float]] = {}
    counts = {"computed": 0, "reused": 0}
    overheads, queues = [], []
    skipped = reused = fallbacks = lookups = 0
    cache_hits = 0
    engine: Dict[str, int] = {}
    store: Dict[str, int] = {}
    for round_ in rounds:
        for layer, entry in layer_totals(round_.spans).items():
            _add(totals.setdefault(layer, {}), entry)
        _add(counts, analysis_counts(round_.spans))
        _add(store, round_.store)
        by_tag: Dict[str, Dict[str, object]] = {}
        for span in round_.spans:
            if span.name in ("parse_module", "Revalidator.revalidate") and span.tag:
                by_tag.setdefault(span.tag, {})[span.name] = span
        for request in round_.requests:
            pair = by_tag.get(request.tag, {})
            parse, revalidate = pair.get("parse_module"), pair.get("Revalidator.revalidate")
            if parse is not None and revalidate is not None:
                overheads.append(request.latency_ms - 1000.0 * revalidate.duration)
                queues.append(1000.0 * (revalidate.start - parse.end))
            shard = request.shard or {}
            skipped += shard.get("pairs_skipped_unchanged", 0)
            reused += shard.get("subgraph_nodes_reused", 0)
            fallbacks += shard.get("chain_fallbacks", 0)
            cache = request.cache or {}
            cache_hits += cache.get("hits", 0)
            lookups += cache.get("hits", 0) + cache.get("misses", 0)
            _add(engine, request.engine or {})
    metrics = per_layer_times(totals, units)
    metrics.update({
        "build.nodes_built": engine.get("nodes_built", 0) / units,
        "normalize.rule_invocations": engine.get("rule_invocations", 0) / units,
        "normalize.rewrites": engine.get("rewrites", 0) / units,
        "normalize.runs": engine.get("normalize_runs", 0) / units,
        "cache.store_errors": store.get("store_errors", 0) / units,
        "cache.bytes_written": store.get("store_bytes_written", 0) / units,
        "analysis.computed": counts["computed"] / units,
        "analysis.reused": counts["reused"] / units,
        "watch.pairs_skipped_pct": (100.0 * skipped / lookups) if lookups else 0.0,
        "watch.nodes_reused": reused / units,
        "watch.chain_fallbacks": fallbacks / units,
        "cache.hit_pct": (100.0 * cache_hits / lookups) if lookups else 0.0,
        "cache.lookups": lookups / units,
        "service.overhead_ms": statistics.median(overheads) if overheads else 0.0,
        "service.queue_ms": statistics.median(queues) if queues else 0.0,
    })
    return metrics


def run_service(workload: Workload, seed: int, seconds: float, trace: bool,
                scale: float) -> Tuple[Dict[str, float], int, int, Dict[str, object]]:
    corpus_s, (modules, selections) = timed_setup(workload, scale)
    # The daemon validates every function it is sent: none may be over the cap.
    texts = {module.name: print_module(module) for module in modules}
    unselected = sum(len(list(module.defined_functions())) - len(selection)
                     for module, selection in zip(modules, selections))
    if unselected:
        raise RuntimeError("service-edits corpora must not exceed the branch cap")
    work_root = os.path.join(os.path.dirname(HERE), ".bench_work")
    os.makedirs(work_root, exist_ok=True)

    # Identical rounds (same seeded order) until the run's seconds are up;
    # with tracing, plain and traced rounds alternate so both see the same
    # drift in machine speed.
    plain: List[Round] = []
    traced: List[Round] = []
    began = time.perf_counter()
    while not plain or time.perf_counter() - began < seconds:
        plain.append(serve_round(texts, False, random.Random(seed), work_root))
        if trace:
            traced.append(serve_round(texts, True, random.Random(seed), work_root))

    # Correctness, outside every timed region.
    failed = attempted = 0
    digests = set()
    for round_ in plain + traced:
        round_failed, digest = _service_checks(round_.priming, round_.requests)
        failed += round_failed + (not round_.clean)
        attempted += len(round_.priming) + len(round_.requests)
        digests.add(digest)
    expected = expected_digest(workload.name, scale)
    digest_ok = len(digests) == 1 and (expected is None or expected in digests)
    failed += not digest_ok

    walls = [round_.wall for round_ in plain]
    requests = [request for round_ in plain for request in round_.requests]
    warm = [r.latency_ms for r in requests if r.kind == "warm"]
    edit = [r.latency_ms for r in requests if r.kind == "edit"]
    info = {"rounds": len(plain), "traced_rounds": len(traced), "round_walls": walls,
            "requests": len(requests), "digest": sorted(digests),
            "digest_expected": expected}
    if trace:
        metrics = _service_layer_metrics(traced)
        metrics["trace_overhead_pct"] = 100.0 * (
            fastest_schedule(traced) / fastest_schedule(plain) - 1.0)
        metrics.update({
            "service.warm_p50_ms": statistics.median(warm),
            "service.warm_p90_ms": percentile(warm, 0.9),
            "service.edit_p50_ms": statistics.median(edit),
            "service.edit_p90_ms": percentile(edit, 0.9),
        })
    else:
        signatures = [s for r in plain[0].requests for s in r.signatures]
        metrics = {
            "setup_s": corpus_s + statistics.median(round_.setup_s for round_ in plain),
            "wall_s": fastest_schedule(plain),
            "validated_pct": validated_pct(signatures),
            "success_pct": 100.0 * (1.0 - failed / attempted),
            "peak_rss_mb": peak_rss_mb(),
        }
    return metrics, attempted, failed, info


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Optional[float] = None):
    workload = WORKLOADS[name]
    scale = workload.scale if scale is None else scale
    runner = run_service if workload.kind == "service" else run_batch
    return runner(workload, seed, seconds, trace, scale)
