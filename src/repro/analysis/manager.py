"""Memoized per-function analyses shared across validation queries.

Building a value graph needs five analyses over the IR function —
predecessors, dominators, natural loops, gate formulas and memory-effect
summaries — none of which depend on the :class:`~repro.vgraph.graph.ValueGraph`
being built.  The stepwise validation pipeline builds every *interior*
function version twice (the "after" of step *i* is the "before" of step
*i+1*) and the bisecting strategy rebuilds the original version once per
probe, so recomputing the analyses for every build is pure waste.

:class:`AnalysisManager` memoizes at two levels:

* **one** :class:`~repro.analysis.shape.CFGFacts` **per CFG shape** —
  dominators, dominator-tree intervals, loops, predecessors,
  reducibility and the gate formulas' :class:`~repro.gated.gates.PathConditionMemo`,
  all indexed by block position.  They depend on the control flow only,
  so every checkpoint a pass left the CFG of (adce, gvn, licm and most
  sccp steps) reuses the facts of an earlier checkpoint.  The table is
  an LRU bounded by ``max_entries`` and belongs to the manager, never to
  the process: a cold run does not inherit another run's facts.
* **one** :class:`FunctionAnalyses` **bundle per function version** —
  the shape's facts bound to the version's own blocks
  (:class:`~repro.analysis.dominators.DominatorTree`,
  :class:`~repro.analysis.loops.LoopInfo`,
  :class:`~repro.gated.gates.GateAnalysis`, keyed by block object) plus
  the version's memory effects.  Entries are keyed by the function's
  *fingerprint* (a content hash of its printed IR) together with the
  object's identity: the identity makes lookups for the common
  same-object case unambiguous, and the fingerprint both invalidates the
  entry if a pass mutated the function in place since it was cached and
  keeps a stale entry from being served to a recycled ``id()``.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..errors import IrreducibleCFGError, ValidationInternalError
from ..ir.module import Function
from ..ir.printer import print_function
from .shape import CFGFacts, Shape, cfg_shape


def function_fingerprint(function: Function) -> str:
    """A content hash of a function's printed IR (stable across clones)."""
    return hashlib.sha256(print_function(function).encode("utf-8")).hexdigest()


class FingerprintTable:
    """One fingerprint memo shared by every checkpoint-fingerprint consumer.

    The planner (:func:`repro.validator.scheduler.plan.build_plan`), the
    chain-graph provider, the settle-phase fallback and the incremental
    differ all fingerprint the *same* checkpoint function objects;
    historically each kept its own per-run memo, so one pipeline's
    checkpoints were re-hashed once per consumer.  This table is the
    single shared memo: entries are keyed weakly by function identity, so
    a retired version's entry dies with the version and a recycled
    ``id()`` can never alias a stale hash.

    Only *known-immutable* versions may be remembered globally.  Two
    callers hold such versions: the changed-pass checkpoints of
    :meth:`~repro.transforms.pass_manager.PassManager.run_with_snapshots`
    are private clones nothing mutates afterwards, and the validation
    daemon's intake modules
    (:class:`~repro.validator.service.daemon.ValidationService`) are
    parsed by the daemon, kept for repeat requests and only ever read.
    An unchanged step's snapshot, by contrast, aliases the caller's own
    function object, which the caller may mutate between runs — so a
    module passed straight to
    :meth:`~repro.validator.watch.Revalidator.revalidate` is never
    remembered.  In the daemon every user of the table runs on the
    worker thread, under the execution lock.  Callers holding a
    maybe-mutable function use :meth:`fingerprint` (memo lookup, compute
    on miss, **no** store); callers holding an immutable version use
    :meth:`remember`.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: "weakref.WeakKeyDictionary[Function, str]" = \
            weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, function: Function) -> Optional[str]:
        """The memoized fingerprint for ``function``, or ``None``."""
        return self._table.get(function)

    def remember(self, function: Function) -> str:
        """Memoize and return ``function``'s fingerprint (immutable callers only)."""
        cached = self._table.get(function)
        if cached is None:
            cached = function_fingerprint(function)
            self._table[function] = cached
        return cached

    def fingerprint(self, function: Function) -> str:
        """``function``'s fingerprint via the memo, computed (not stored) on miss."""
        cached = self._table.get(function)
        return cached if cached is not None else function_fingerprint(function)


#: The process-wide checkpoint fingerprint table (see :class:`FingerprintTable`).
CHECKPOINT_FINGERPRINTS = FingerprintTable()


class FunctionAnalyses:
    """The analysis bundle one value-graph build consumes."""

    __slots__ = ("function", "fingerprint", "preds", "dom", "loops", "gates",
                 "memory_effects")

    def __init__(self, function: Function, fingerprint: str, preds, dom, loops,
                 gates, memory_effects):
        self.function = function
        self.fingerprint = fingerprint
        self.preds = preds
        self.dom = dom
        self.loops = loops
        self.gates = gates
        self.memory_effects = memory_effects

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionAnalyses @{self.function.name} {self.fingerprint[:12]}>"


def compute_function_analyses(function: Function,
                              fingerprint: Optional[str] = None,
                              facts: Optional[CFGFacts] = None) -> FunctionAnalyses:
    """Compute the full analysis bundle for one function (no caching).

    Performs the same front-end checks as graph construction: declarations
    have nothing to analyse and irreducible control flow is rejected
    (§5.1), so a cached bundle always describes an analysable function.
    ``facts`` are the function's CFG-shape facts when the caller shares
    them (:class:`AnalysisManager`); without them they are computed
    afresh.  Without a ``fingerprint``, the bundle's is read from
    :data:`CHECKPOINT_FINGERPRINTS`, so a remembered checkpoint is not
    printed and hashed again.
    """
    # Imported lazily: ``repro.gated`` itself imports ``repro.analysis``
    # submodules, so a module-level import here would turn a direct
    # ``import repro.gated`` into a circular-import error.
    from ..gated.gates import GateAnalysis
    from ..gated.monadic import MemoryEffects
    from .dominators import DominatorTree
    from .loops import LoopInfo

    if function.is_declaration:
        raise ValidationInternalError(f"@{function.name} has no body to analyse")
    if facts is None:
        facts = CFGFacts.of(function)
    if not facts.is_reducible():
        raise IrreducibleCFGError(f"@{function.name} has an irreducible CFG")

    dom = DominatorTree(function, facts)
    blocks = dom.blocks
    return FunctionAnalyses(
        function,
        fingerprint if fingerprint is not None
        else CHECKPOINT_FINGERPRINTS.fingerprint(function),
        preds={block: [blocks[pred] for pred in facts.preds[index]]
               for index, block in enumerate(blocks)},
        dom=dom,
        loops=LoopInfo.compute(function, dom),
        gates=GateAnalysis(function, dom),
        memory_effects=MemoryEffects(function),
    )


class AnalysisManager:
    """Memoizes :class:`FunctionAnalyses` across validation queries.

    One manager is meant to live for (at least) one multi-version
    validation job — a stepwise pipeline walk, a bisection, a whole-module
    run — so every distinct function version pays for its analyses once no
    matter how many graph builds consume them.  The ``computed``/``reused``
    counters are the evidence: reports surface them and the stepwise tests
    assert that interior versions are analysed once and reused.

    ``max_entries`` bounds the cache for long-lived services: without a
    bound a manager shared across a whole corpus sweep holds a strong
    reference to *every* version it ever analysed (each bundle pins its
    function, blocks and instructions).  With a bound the manager becomes
    an LRU — lookups refresh an entry's recency, insertions evict the
    least recently used entry beyond the bound.  Stepwise validation
    consumes each checkpoint's analyses in pipeline order (the validated
    prefix grows monotonically and the "after" of step *i* is reused as
    the "before" of step *i+1*), so LRU order coincides with
    prefix-generation order: even ``max_entries=2`` preserves every
    stepwise reuse while old generations are released.  Eviction can never
    change a verdict — an evicted version is simply recomputed — only the
    ``analyses_computed``/``analyses_evicted`` counters.

    The CFG-shape table (see the module docstring) obeys the same bound.
    ``shapes_computed`` counts its misses; a graph build adds the misses
    it caused to the graph's ``cfg_shapes_computed`` work counter.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self._cache: "OrderedDict[Tuple[int, str], FunctionAnalyses]" = OrderedDict()
        #: LRU bound (``None`` = unbounded, the historical behavior).
        self.max_entries = max_entries
        #: Number of analysis bundles actually computed (cache misses).
        self.computed = 0
        #: Number of lookups answered from the cache.
        self.reused = 0
        #: Number of bundles dropped by the LRU bound.
        self.evicted = 0
        self._shapes: "OrderedDict[Shape, CFGFacts]" = OrderedDict()
        #: Number of CFG-shape facts computed (shape-table misses).
        self.shapes_computed = 0

    def __len__(self) -> int:
        return len(self._cache)

    def analyses_for(self, function: Function,
                     fingerprint: Optional[str] = None) -> FunctionAnalyses:
        """The (memoized) analysis bundle for ``function``.

        ``fingerprint`` is ``function``'s content fingerprint when the
        caller already holds it (a plan's checkpoints); otherwise it is
        read through :data:`CHECKPOINT_FINGERPRINTS`.
        """
        if fingerprint is None:
            fingerprint = CHECKPOINT_FINGERPRINTS.fingerprint(function)
        key = (id(function), fingerprint)
        bundle = self._cache.get(key)
        if bundle is not None:
            self.reused += 1
            self._cache.move_to_end(key)
            return bundle
        facts = self._facts_for(function) if function.blocks else None
        bundle = compute_function_analyses(function, fingerprint, facts)
        self.computed += 1
        # The bundle holds a strong reference to ``function``, so the id()
        # in the key cannot be recycled while the entry is alive.
        self._cache[key] = bundle
        if self.max_entries is not None:
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
                self.evicted += 1
        return bundle

    def _facts_for(self, function: Function) -> CFGFacts:
        """The shared facts of ``function``'s CFG shape (LRU, like bundles)."""
        shape = cfg_shape(function)
        facts = self._shapes.get(shape)
        if facts is not None:
            self._shapes.move_to_end(shape)
            return facts
        facts = self._shapes[shape] = CFGFacts(shape)
        self.shapes_computed += 1
        if self.max_entries is not None:
            while len(self._shapes) > self.max_entries:
                self._shapes.popitem(last=False)
        return facts

    def stats(self) -> Dict[str, int]:
        """Computed/reused/evicted/size counters as a plain dict (for reports)."""
        return {
            "analyses_computed": self.computed,
            "analyses_reused": self.reused,
            "analyses_evicted": self.evicted,
            "analyses_cached": len(self._cache),
        }


__all__ = [
    "AnalysisManager",
    "CHECKPOINT_FINGERPRINTS",
    "FingerprintTable",
    "FunctionAnalyses",
    "compute_function_analyses",
    "function_fingerprint",
]
