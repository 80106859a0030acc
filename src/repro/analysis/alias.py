"""Basic alias analysis.

Reproduces the "simple non-aliasing rules" the paper relies on (§4):

* two pointers that originate from two distinct stack allocations may not
  alias;
* a stack allocation may not alias a function argument or a global (the
  fresh memory cannot have escaped yet);
* two distinct globals may not alias;
* two ``getelementptr`` with the same base pointer and *different constant*
  offsets may not alias; with the *same* offsets they must alias;
* a pointer must-aliases itself.

Everything else is ``MAY_ALIAS``.  The same logic is used both by the
optimizer (GVN load forwarding, DSE, LICM) and by the validator's
load/store rewrite rules, which is exactly the paper's setup: the rules in
the validator "can use the result of a may-alias analysis".
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Tuple

from ..ir.instructions import Alloca, GetElementPtr
from ..ir.values import Argument, ConstantInt, GlobalVariable, Value


class AliasResult(enum.Enum):
    """Outcome of an alias query."""

    NO_ALIAS = "no"
    MAY_ALIAS = "may"
    MUST_ALIAS = "must"


def _strip_gep(pointer: Value, resolve: Optional[Callable[[Value], Value]] = None
               ) -> Tuple[Value, Optional[int], bool]:
    """Peel constant-offset GEPs off a pointer.

    Returns ``(base, offset, known)`` where ``offset`` is the accumulated
    constant element offset when every peeled GEP had constant indices
    (``known=True``), otherwise ``known=False`` and the offset is
    meaningless.  ``resolve`` maps each operand read on the way (see
    :class:`AliasAnalysis`).
    """
    offset = 0
    known = True
    while isinstance(pointer, GetElementPtr):
        indices = pointer.indices
        index = indices[0] if len(indices) == 1 else None
        if index is not None and resolve is not None:
            index = resolve(index)
        if isinstance(index, ConstantInt):
            offset += index.value
        else:
            known = False
        pointer = pointer.pointer
        if resolve is not None:
            pointer = resolve(pointer)
    return pointer, offset, known


def _is_identified_object(value: Value) -> bool:
    """Pointers whose storage is distinct from any other identified object."""
    return isinstance(value, (Alloca, GlobalVariable))


class AliasAnalysis:
    """Stateless basic alias analysis (see module docstring).

    ``resolve`` (optional) maps every value the analysis reads, the query's
    pointers and the GEP operands it peels.  A pass that defers its
    operand rewrite (:meth:`~repro.ir.module.Function.replace_uses`)
    passes its replacement lookup, so queries see the IR as if every
    replacement had been rewritten on the spot.
    """

    def __init__(self, resolve: Optional[Callable[[Value], Value]] = None) -> None:
        self.resolve = resolve

    def alias(self, a: Value, b: Value) -> AliasResult:
        """Classify the relationship between two pointer values."""
        resolve = self.resolve
        if resolve is not None:
            a, b = resolve(a), resolve(b)
        if a is b:
            return AliasResult.MUST_ALIAS

        base_a, off_a, known_a = _strip_gep(a, resolve)
        base_b, off_b, known_b = _strip_gep(b, resolve)

        if base_a is base_b:
            if known_a and known_b:
                if off_a == off_b:
                    return AliasResult.MUST_ALIAS
                return AliasResult.NO_ALIAS
            return AliasResult.MAY_ALIAS

        # Distinct identified objects never alias.
        if _is_identified_object(base_a) and _is_identified_object(base_b):
            return AliasResult.NO_ALIAS

        # Fresh stack memory has not escaped: it cannot alias arguments
        # or globals (accessed directly or via constant GEPs).
        if isinstance(base_a, Alloca) and isinstance(base_b, (Argument, GlobalVariable)):
            return AliasResult.NO_ALIAS
        if isinstance(base_b, Alloca) and isinstance(base_a, (Argument, GlobalVariable)):
            return AliasResult.NO_ALIAS

        return AliasResult.MAY_ALIAS

    def no_alias(self, a: Value, b: Value) -> bool:
        """Shorthand: is the pair definitely non-aliasing?"""
        return self.alias(a, b) is AliasResult.NO_ALIAS

    def must_alias(self, a: Value, b: Value) -> bool:
        """Shorthand: is the pair definitely the same address?"""
        return self.alias(a, b) is AliasResult.MUST_ALIAS


__all__ = ["AliasAnalysis", "AliasResult"]
