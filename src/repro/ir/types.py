"""Type system for the LLVM-like IR.

The type language is a small subset of LLVM's: fixed-width integers,
pointers, a double-precision float type, arrays, functions, ``void`` and
``label``.  Types are immutable value objects; two structurally equal types
compare equal and hash equally, so they can be used as dictionary keys and
hash-consed freely.
"""

from __future__ import annotations

from typing import Sequence, Tuple


class Type:
    """Base class of all IR types."""

    def is_integer(self) -> bool:
        """Return ``True`` if this is an integer type of any width."""
        return isinstance(self, IntType)

    def is_bool(self) -> bool:
        """Return ``True`` if this is the 1-bit integer type ``i1``."""
        return isinstance(self, IntType) and self.bits == 1

    def is_void(self) -> bool:
        """Return ``True`` if this is the ``void`` type."""
        return isinstance(self, VoidType)

    def is_first_class(self) -> bool:
        """Return ``True`` for types that SSA values may have."""
        return not isinstance(self, (VoidType, FunctionType, LabelType))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"


class VoidType(Type):
    """The ``void`` type, used only as a function return type."""

    def __str__(self) -> str:
        return "void"

    def __eq__(self, other) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")


class LabelType(Type):
    """The type of basic blocks (branch targets)."""

    def __str__(self) -> str:
        return "label"

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelType)

    def __hash__(self) -> int:
        return hash("label")


class IntType(Type):
    """A fixed-width integer type such as ``i1``, ``i8``, ``i32``, ``i64``."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits <= 0 or bits > 128:
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def __str__(self) -> str:
        return f"i{self.bits}"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("int", self.bits))

    @property
    def max_unsigned(self) -> int:
        """Largest value representable when interpreted as unsigned."""
        return (1 << self.bits) - 1

    @property
    def min_signed(self) -> int:
        """Smallest value representable when interpreted as signed."""
        return -(1 << (self.bits - 1))

    @property
    def max_signed(self) -> int:
        """Largest value representable when interpreted as signed."""
        return (1 << (self.bits - 1)) - 1


class FloatType(Type):
    """A double-precision floating point type (printed ``double``)."""

    def __str__(self) -> str:
        return "double"

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatType)

    def __hash__(self) -> int:
        return hash("double")


class PointerType(Type):
    """A pointer to a pointee type."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: Type):
        self.pointee = pointee

    def __str__(self) -> str:
        return f"{self.pointee}*"

    def __eq__(self, other) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))


class ArrayType(Type):
    """A fixed-length array ``[count x element]``."""

    __slots__ = ("element", "count")

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.count == self.count
        )

    def __hash__(self) -> int:
        return hash(("array", self.element, self.count))


class FunctionType(Type):
    """A function signature: return type plus parameter types."""

    __slots__ = ("return_type", "param_types", "vararg")

    def __init__(self, return_type: Type, param_types: Sequence[Type], vararg: bool = False):
        self.return_type = return_type
        self.param_types: Tuple[Type, ...] = tuple(param_types)
        self.vararg = vararg

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self.param_types)
        if self.vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self.return_type} ({params})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.return_type == self.return_type
            and other.param_types == self.param_types
            and other.vararg == self.vararg
        )

    def __hash__(self) -> int:
        return hash(("func", self.return_type, self.param_types, self.vararg))


# Shared singletons for the common types.  Using them is optional (structural
# equality means a fresh ``IntType(32)`` is interchangeable with ``I32``) but
# keeps client code terse.
VOID = VoidType()
LABEL = LabelType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
DOUBLE = FloatType()


def ptr(pointee: Type) -> PointerType:
    """Convenience constructor for :class:`PointerType`."""
    return PointerType(pointee)


def int_type(bits: int) -> IntType:
    """Return the integer type of the given bit width."""
    return IntType(bits)


def truncate_unsigned(value: int, bits: int) -> int:
    """Reduce ``value`` modulo ``2**bits`` (two's complement bit pattern)."""
    return value & ((1 << bits) - 1)


def to_signed(value: int, bits: int) -> int:
    """Interpret the low ``bits`` bits of ``value`` as a signed integer."""
    value = truncate_unsigned(value, bits)
    if value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int) -> int:
    """Interpret ``value`` as an unsigned integer of the given width."""
    return truncate_unsigned(value, bits)
