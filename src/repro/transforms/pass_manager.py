"""Pass manager and pass registry.

A *pass* is any callable taking a :class:`~repro.ir.module.Function` and
returning ``True`` if it changed the function.  Passes register themselves
under a short name (``"gvn"``, ``"licm"``, ...) so pipelines can be
described as lists of strings — the same way the paper describes its
pipeline (``ADCE, GVN, SCCP, LICM, LD, LU, DSE``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import TransformError
from ..ir.cloning import clone_function
from ..ir.module import Function, Module

#: Signature of a function pass.
FunctionPass = Callable[[Function], bool]

_REGISTRY: Dict[str, FunctionPass] = {}


def register_pass(name: str, pass_fn: Optional[FunctionPass] = None):
    """Register a pass under ``name``.

    Can be used as a decorator (``@register_pass("gvn")``) or called
    directly with the pass callable.
    """

    def decorator(fn: FunctionPass) -> FunctionPass:
        if name in _REGISTRY:
            raise TransformError(f"pass {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    if pass_fn is not None:
        return decorator(pass_fn)
    return decorator


def get_pass(name: str) -> FunctionPass:
    """Look up a registered pass by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise TransformError(f"unknown pass {name!r} (known: {known})") from None


def available_passes() -> List[str]:
    """Names of every registered pass, sorted."""
    return sorted(_REGISTRY)


#: The optimization pipeline used throughout the paper's evaluation (§5.1).
PAPER_PIPELINE = ("adce", "gvn", "sccp", "licm", "loop-deletion", "loop-unswitch", "dse")


@dataclass
class PassSnapshot:
    """The function's state after one pipeline step.

    ``function`` is an immutable checkpoint: when the pass changed
    something, the working copy it changed, frozen in place (a later
    step that runs a pass clones it first); otherwise *the same object*
    as the previous step's checkpoint (so adjacent unchanged steps
    compare by identity and a shared
    :class:`~repro.analysis.manager.AnalysisManager` never analyses the
    identical version twice).  A changed checkpoint may be shared: a
    :class:`PassStepMemo` that outlives one run hands the same object to
    every later run whose step had the same input content, so no
    consumer may mutate it — result-module assembly clones a shared
    checkpoint before re-homing it.

    Snapshots are the unit of work the sharded batch driver ships to its
    worker processes, so the whole payload — step name, changed flag and the
    checkpoint function — must stay pickle-safe (plain data and IR
    objects; no open handles, locks or pass callables).
    """

    #: Bookkeeping step name of the pass this snapshot follows
    #: (uniquified for repeated passes: ``"gvn"``, ``"gvn#2"``, ...).
    pass_name: str
    #: Did the pass change the function?
    changed: bool
    #: Checkpoint of the function after the pass ran.
    function: Function
    #: Content hash of :attr:`function` (see :meth:`fingerprint`);
    #: excluded from equality/repr.
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)
    #: Was the step answered from a :class:`PassStepMemo` instead of
    #: running the pass?  Excluded from equality.
    reused: bool = field(default=False, compare=False)

    def fingerprint(self) -> str:
        """The checkpoint's content fingerprint, computed at most once.

        Checkpoints are immutable by contract, so the hash can be cached;
        the batch driver derives every adjacent-pair cache key from these
        instead of re-printing each function once per pair it appears in.
        :meth:`PassManager.run_with_snapshots` fills it while it walks
        the pipeline (it keys the next step on it), entering each changed
        checkpoint into the process-wide
        :data:`~repro.analysis.manager.CHECKPOINT_FINGERPRINTS` table that
        the planner, chain provider and incremental differ consult.
        Unchanged snapshots alias the caller's original function object
        (which the caller may later mutate in place), so those stay out
        of that table.
        """
        if self._fingerprint is None:
            from ..analysis.manager import function_fingerprint

            self._fingerprint = function_fingerprint(self.function)
        return self._fingerprint


def module_context_digest(module: Optional[Module]) -> str:
    """A content hash of everything a pass reads beyond the function text.

    Passes see their module through operands: globals (alias analysis
    reads their identity and constness, the printer their name and type)
    and callees (``readnone``/``readonly`` decide what a ``Call`` may
    touch).  The digest covers every global's name, type, constness and
    initializer and every function's name, type and attributes — but not
    the module's name, which says nothing about any function's
    optimization (a daemon names each request's module after its tag).
    """
    if module is None:
        return ""
    lines = []
    for global_var in module.globals.values():
        init = (global_var.initializer.ref()
                if global_var.initializer is not None else "undef")
        kind = "constant" if global_var.is_constant else "global"
        lines.append(f"@{global_var.name} = {kind} {global_var.value_type} {init}")
    for function in module.functions.values():
        attributes = " ".join(sorted(function.attributes))
        lines.append(f"@{function.name} : {function.function_type} {attributes}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


#: What identifies one pipeline step: ``(module-context digest, input
#: fingerprint, pass callable)``.
StepKey = Tuple[str, str, FunctionPass]

#: One memoized pipeline step: ``(changed, checkpoint, checkpoint
#: fingerprint)``; the checkpoint and its fingerprint are ``None`` when
#: the pass changed nothing (the step's output is its input).
StepOutcome = Tuple[bool, Optional[Function], Optional[str]]


class PassStepMemo:
    """Content-keyed memo of pipeline steps, shared across runs.

    The key is ``(module-context digest, input fingerprint, pass
    callable)``: a pass is a deterministic function of its input's
    content and of the module context it reads (:func:`module_context_digest`),
    so the same key always yields the same output content — the printed
    IR is the content identity here exactly as it is for the proof
    cache.  Keys hold only strings and the registered pass callable,
    never an ``id()``.  Values are :data:`StepOutcome` records; a held
    checkpoint is immutable by contract (see :class:`PassSnapshot`).  It
    keeps referencing the globals and callees of the module it was made
    in, so a memo that outlives a run relies on the modules it has seen
    keeping their declarations as they were: a long-lived driver reads
    its input modules and never writes them.

    ``max_entries`` bounds the memo as an LRU (``None`` = unbounded).
    Eviction only makes a later step run its pass again; it never
    changes a record.  Which steps a run took from the memo is on its
    snapshots (:attr:`PassSnapshot.reused`).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._steps: "OrderedDict[StepKey, StepOutcome]" = OrderedDict()
        #: Entries dropped by the LRU bound.
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._steps)

    def lookup(self, key: StepKey) -> Optional[StepOutcome]:
        """The memoized outcome for ``key`` (refreshing its recency), or ``None``."""
        outcome = self._steps.get(key)
        if outcome is not None:
            self._steps.move_to_end(key)
        return outcome

    def record(self, key: StepKey, outcome: StepOutcome) -> None:
        """Remember one step's outcome, evicting beyond the bound."""
        self._steps[key] = outcome
        if self.max_entries is not None:
            while len(self._steps) > self.max_entries:
                self._steps.popitem(last=False)
                self.evicted += 1


def checkpoint_chain(function: Function, snapshots: Sequence[PassSnapshot]
                     ) -> Tuple[List[PassSnapshot], List[Function]]:
    """Flatten a snapshot list into the stepwise validation version chain.

    Returns ``(steps, versions)`` where ``steps`` keeps only the snapshots
    whose pass *changed* the function (unchanged passes are identity steps
    — nothing to validate) and ``versions`` is the original followed by
    one checkpoint per changed step: ``versions[i]``/``versions[i + 1]``
    is exactly the adjacent pair validating ``steps[i]``.  Both the serial
    and the sharded drivers build their work from this one helper, so they
    cannot disagree about which pairs a pipeline produces; every element
    is a pickle-safe worker payload.
    """
    steps = [snapshot for snapshot in snapshots if snapshot.changed]
    versions = [function] + [snapshot.function for snapshot in steps]
    return steps, versions


class PassManager:
    """Runs a sequence of function passes over functions or whole modules.

    A pipeline may list the same pass several times (real optimizers
    re-run cleanups).  Bookkeeping — the per-pass changed flags, snapshot
    names and therefore the validator's per-pass verdicts and blame — is
    keyed by a *step name* that uniquifies repeats (``"gvn"``, ``"gvn#2"``,
    ...), so a second occurrence never overwrites the first's flag or,
    worse, makes a changed function look untransformed.
    """

    def __init__(self, pass_names: Sequence[str] = PAPER_PIPELINE):
        self.pass_names = list(pass_names)
        self._passes = []
        seen: Dict[str, int] = {}
        for name in self.pass_names:
            seen[name] = seen.get(name, 0) + 1
            step_name = name if seen[name] == 1 else f"{name}#{seen[name]}"
            self._passes.append((step_name, get_pass(name)))

    @property
    def step_names(self) -> List[str]:
        """The uniquified bookkeeping name of every pipeline step."""
        return [step_name for step_name, _ in self._passes]

    def run_on_function(self, function: Function) -> Dict[str, bool]:
        """Run the pipeline on one function.

        Returns a map from step name to whether that pass changed the
        function; the driver and the per-optimization experiments use it to
        count "transformed" functions the way the paper does (Figure 5
        counts only functions actually transformed by the optimization).
        """
        if function.is_declaration:
            return {step_name: False for step_name, _ in self._passes}
        changed = {}
        for step_name, pass_fn in self._passes:
            changed[step_name] = bool(pass_fn(function))
        return changed

    def run_on_module(self, module: Module) -> Dict[str, Dict[str, bool]]:
        """Run the pipeline on every defined function of a module."""
        return {
            function.name: self.run_on_function(function)
            for function in module.defined_functions()
        }

    def run_with_snapshots(self, function: Function,
                           memo: Optional[PassStepMemo] = None,
                           context: Optional[str] = None,
                           fingerprint: Optional[str] = None,
                           ) -> List[PassSnapshot]:
        """Run the pipeline on working clones, checkpointing every step.

        ``function`` itself is never mutated.  Returns one
        :class:`PassSnapshot` per pipeline step; the last snapshot's
        function is the fully optimized version (or ``function`` itself
        when no pass changed anything).  The checkpoints are what the
        stepwise and bisecting validation strategies consume: validating
        adjacent checkpoints shrinks each equivalence problem to one
        pass's effect, and a rejection names the offending pass instead of
        discarding the whole pipeline's work.

        Every step goes through ``memo`` (a fresh, call-private one when
        ``None``): a step whose ``(context, input fingerprint, pass)``
        the memo knows takes its recorded outcome and runs nothing, and
        a step it does not know runs the pass on a working clone of its
        input — the previous step's working copy while no pass has
        changed it.  A pass that changes the working copy freezes it in
        place as the step's checkpoint, so a step clones only when it
        runs a pass on a frozen checkpoint: a cold run makes the first
        working copy plus one clone per changed checkpoint a later step
        runs a pass on, and a checkpoint no later step runs on — the
        last step's, or one followed by memo hits only — is never
        copied.  A memo that outlives the call therefore makes a repeat
        run free and an edited pipeline pay only for the steps whose
        input content is new — a shared prefix and a suffix that
        converges back alike.  Its checkpoints are shared with every
        run that hits them and must never be mutated.  ``context`` is
        the :func:`module_context_digest` of ``function``'s module
        (computed when a memo is passed without one) and
        ``fingerprint`` the function's own content fingerprint, when the
        caller already has it.
        """
        if function.is_declaration:
            return [PassSnapshot(step_name, False, function)
                    for step_name, _ in self._passes]
        from ..analysis.manager import CHECKPOINT_FINGERPRINTS

        if memo is None:
            # A call-private memo sees one function: any context will do.
            memo, context = PassStepMemo(), ""
        elif context is None:
            context = module_context_digest(function.parent)
        current = (fingerprint if fingerprint is not None
                   else CHECKPOINT_FINGERPRINTS.fingerprint(function))
        checkpoint = function
        # A private clone whose content is the current checkpoint's, or
        # None when the checkpoint is frozen (the input, a memo hit, or
        # the working copy a changing pass just froze in place).
        working: Optional[Function] = None
        snapshots = []
        for step_name, pass_fn in self._passes:
            key = (context, current, pass_fn)
            outcome = memo.lookup(key)
            reused = outcome is not None
            if reused:
                changed, output, output_fingerprint = outcome
                if changed:
                    checkpoint, current = output, output_fingerprint
                    working = None
            else:
                if working is None:
                    working = clone_function(checkpoint)
                changed = bool(pass_fn(working))
                if changed:
                    checkpoint, working = working, None
                    current = CHECKPOINT_FINGERPRINTS.remember(checkpoint)
                    memo.record(key, (True, checkpoint, current))
                else:
                    memo.record(key, (False, None, None))
            snapshots.append(PassSnapshot(step_name, changed, checkpoint,
                                          _fingerprint=current, reused=reused))
        return snapshots


def optimize(function: Function, pass_names: Iterable[str] = PAPER_PIPELINE) -> Function:
    """Run the named passes on ``function`` in place and return it.

    This is the convenience entry point used in examples and docstrings::

        after = optimize(before.clone(), ["instcombine", "gvn"])
    """
    for name in pass_names:
        get_pass(name)(function)
    return function


__all__ = [
    "FunctionPass",
    "PassManager",
    "PassSnapshot",
    "PassStepMemo",
    "PAPER_PIPELINE",
    "StepKey",
    "StepOutcome",
    "checkpoint_chain",
    "module_context_digest",
    "register_pass",
    "get_pass",
    "available_passes",
    "optimize",
]
