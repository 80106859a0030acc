"""Outside-in span recorder for the benchmark.

The library carries no instrumentation of its own, so the benchmark times
the calls *into* each layer's public functions by wrapping them for the
duration of a traced run:

* class methods are replaced on the class that defines them (and on every
  subclass that overrides them, e.g. each ``Executor.execute``);
* module-level functions are re-bound in *every* loaded ``repro.*`` module
  whose globals hold the original object, because modules that imported a
  function by name (``validate.py`` binds ``build_chain_graph`` directly)
  never look it up in the defining module again.

Each call becomes one span ``(id, parent, layer, name, start, end, self,
tag)``.
A span's self time is its duration minus the durations of the spans it
directly caused, so summing self time per layer never counts a nested call
twice.  Stacks are per thread: the daemon parses requests on its event-loop
thread and validates on a worker thread.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Layer -> the public calls a traced run times, as (module, qualified name).
#: Layer names are the metric prefixes of ``BENCHMARK.json``.
LAYER_CALLS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "transforms": (("repro.transforms.pass_manager", "PassManager.run_on_function"),
                   ("repro.transforms.pass_manager", "PassManager.run_with_snapshots")),
    "analysis": (("repro.analysis.manager", "AnalysisManager.analyses_for"),
                 ("repro.analysis.manager", "compute_function_analyses"),
                 ("repro.analysis.manager", "function_fingerprint")),
    "gated": (("repro.gated.gates", "GateAnalysis.path_condition"),
              ("repro.gated.gates", "GateAnalysis.phi_gates"),
              ("repro.gated.gates", "GateAnalysis.loop_exit_condition")),
    "build": (("repro.vgraph.builder", "build_shared_graph"),
              ("repro.vgraph.builder", "build_chain_graph"),
              ("repro.vgraph.builder", "extend_chain_graph")),
    "normalize": (("repro.vgraph.normalize", "Normalizer.normalize_until_equal"),
                  ("repro.vgraph.normalize", "Normalizer.normalize")),
    "validate": (("repro.validator.validate", "validate"),
                 ("repro.validator.validate", "validate_chain"),
                 ("repro.validator.validate", "validate_chain_delta")),
    "plan": (("repro.validator.scheduler.plan", "build_plan"),),
    "execute": (("repro.validator.scheduler.executors", "Executor.execute"),),
    "settle": (("repro.validator.scheduler.settle", "settle_plan"),),
    "cache": (("repro.validator.cache", "ValidationCache.get"),
              ("repro.validator.cache", "ValidationCache.put"),
              ("repro.validator.cache", "ValidationCache.prefetch"),
              ("repro.validator.cache", "ValidationCache.save")),
    "watch": (("repro.validator.watch", "Revalidator.revalidate"),
              ("repro.validator.scheduler.plan", "diff_plan")),
    "parse": (("repro.ir.parser", "parse_module"),),
}


class Span(NamedTuple):
    """One timed call into a layer."""

    id: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float
    self_s: float
    #: Optional correlation key (e.g. the request a daemon span served).
    tag: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("id", "child_s")

    def __init__(self, span_id: int) -> None:
        self.id = span_id
        self.child_s = 0.0


class SpanRecorder:
    """Collects spans from wrapped calls; self time = span minus children."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (owner, attribute name, original value) for every patch applied.
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> _Frame:
        """Open a span on this thread's stack (use :meth:`end` to close it)."""
        with self._lock:
            frame = _Frame(next(self._ids))
        self._stack().append(frame)
        return frame

    def end(self, frame: _Frame, layer: str, name: str, start: float,
            tag: Optional[str] = None) -> Span:
        """Close ``frame``; charge its duration to the enclosing span."""
        finish = self.clock()
        stack = self._stack()
        stack.pop()
        duration = finish - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        span = Span(frame.id, parent.id if parent is not None else None,
                    layer, name, start, finish, duration - frame.child_s, tag)
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, layer: str, name: str, function: Callable,
             tagger: Optional[Callable] = None) -> Callable:
        """``function`` with every call recorded as a span of ``layer``.

        ``tagger(args, kwargs, result)`` names the span's correlation tag.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = recorder.begin()
            start = recorder.clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                tag = tagger(args, kwargs, result) if tagger is not None else None
                recorder.end(frame, layer, name, start, tag)

        traced.__traced_original__ = function
        return traced

    # -- patching ---------------------------------------------------------
    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self, layer_calls: Dict[str, Sequence[Tuple[str, str]]] = LAYER_CALLS,
                taggers: Optional[Dict[str, Callable]] = None) -> "SpanRecorder":
        """Wrap every listed call; returns ``self`` (see :meth:`uninstall`).

        ``taggers`` maps a qualified call name to its span tagger.
        """
        taggers = taggers or {}
        for layer, calls in layer_calls.items():
            for module_name, qualified in calls:
                module = importlib.import_module(module_name)
                tagger = taggers.get(qualified)
                if "." in qualified:
                    class_name, method = qualified.split(".")
                    self._wrap_method(layer, getattr(module, class_name), method, tagger)
                else:
                    self._rebind_function(layer, getattr(module, qualified), tagger)
        return self

    def _wrap_method(self, layer: str, cls: type, method: str,
                     tagger: Optional[Callable] = None) -> None:
        pending = [cls]
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            if method in klass.__dict__:
                original = klass.__dict__[method]
                self._patch(klass, method, self.wrap(
                    layer, f"{klass.__name__}.{method}", original, tagger))

    def _rebind_function(self, layer: str, original: Callable,
                         tagger: Optional[Callable] = None) -> None:
        traced = self.wrap(layer, original.__name__, original, tagger)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self time, call count and outermost inclusive time.

    ``inclusive_s`` sums the durations of spans whose ancestors all belong
    to other layers, so a layer that calls itself (``Normalizer.normalize``
    under ``normalize_until_equal``) is not counted twice.
    """
    by_id = {span.id: span for span in spans}
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.layer,
                                  {"self_s": 0.0, "calls": 0, "inclusive_s": 0.0})
        entry["self_s"] += span.self_s
        entry["calls"] += 1
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.layer != span.layer:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            entry["inclusive_s"] += span.duration
    return totals


def span_from_row(row: Sequence[object]) -> Span:
    """Inverse of ``list(span)``, the form the daemon launcher writes."""
    return Span(*row)


__all__ = ["LAYER_CALLS", "Span", "SpanRecorder", "layer_totals", "span_from_row"]
