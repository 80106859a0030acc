"""Parser for the textual LLVM-like assembly.

The accepted syntax is the subset of LLVM assembly produced by
:mod:`repro.ir.printer`: module-level globals, function declarations and
definitions, and the instruction set in :mod:`repro.ir.instructions`.
The parser is a straightforward hand-written recursive descent over a
token stream; forward references (branches to later blocks, φ inputs from
later definitions) are resolved with placeholder values that are patched
once the whole function has been read.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..errors import ParseError
from .instructions import (
    Alloca,
    BINARY_OPS,
    BinaryOperator,
    Branch,
    CAST_OPS,
    Call,
    Cast,
    GetElementPtr,
    ICmp,
    ICMP_PREDICATES,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    LabelType,
    PointerType,
    Type,
    VoidType,
)
from .values import (
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    GlobalVariable,
    UndefValue,
    Value,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>;[^\n]*)
  | (?P<newline>\n)
  | (?P<local>%[A-Za-z0-9._$-]+)
  | (?P<global>@[A-Za-z0-9._$-]+)
  | (?P<label>[A-Za-z0-9._$-]+:)
  | (?P<float>-?\d+\.\d+(e[+-]?\d+)?)
  | (?P<int>-?\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>\.\.\.|[(){}\[\],=*:])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r})"


def tokenize(source: str) -> List[_Token]:
    """Split IR source text into tokens, dropping whitespace and comments."""
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        kind = match.lastgroup
        text = match.group()
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, pos - line_start + 1))
        pos = match.end()
    tokens.append(_Token("eof", "", line, 1))
    return tokens


class _ForwardRef(Value):
    """Placeholder for a value referenced before its definition."""

    __slots__ = ()


class Parser:
    """Recursive-descent parser for one module."""

    def __init__(self, source: str, name: str = "module"):
        self._tokens = tokenize(source)
        self._pos = 0
        self.module = Module(name)

    # -- token helpers -----------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            expected = text or kind
            raise ParseError(
                f"expected {expected!r}, found {token.text!r}", token.line, token.column
            )
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._next()
        return None

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message + f" (found {token.text!r})", token.line, token.column)

    # -- types --------------------------------------------------------------
    def parse_type(self) -> Type:
        """Parse a type, including pointer ``*`` suffixes and arrays."""
        token = self._peek()
        base: Type
        if token.kind == "word" and re.fullmatch(r"i\d+", token.text):
            self._next()
            base = IntType(int(token.text[1:]))
        elif token.kind == "word" and token.text == "double":
            self._next()
            base = FloatType()
        elif token.kind == "word" and token.text == "void":
            self._next()
            base = VoidType()
        elif token.kind == "word" and token.text == "label":
            self._next()
            base = LabelType()
        elif token.kind == "punct" and token.text == "[":
            self._next()
            count = int(self._expect("int").text)
            self._expect("word", "x")
            element = self.parse_type()
            self._expect("punct", "]")
            base = ArrayType(element, count)
        else:
            raise self._error("expected a type")
        while self._accept("punct", "*"):
            base = PointerType(base)
        return base

    # -- module level ---------------------------------------------------------
    def parse_module(self) -> Module:
        """Parse the whole module and return it."""
        while self._peek().kind != "eof":
            token = self._peek()
            if token.kind == "global":
                self._parse_global()
            elif token.kind == "word" and token.text == "define":
                self._parse_function(define=True)
            elif token.kind == "word" and token.text == "declare":
                self._parse_function(define=False)
            else:
                raise self._error("expected 'define', 'declare' or a global")
        return self.module

    def _parse_global(self) -> None:
        name = self._next().text[1:]
        self._expect("punct", "=")
        kind = self._expect("word").text
        if kind not in ("global", "constant"):
            raise self._error("expected 'global' or 'constant'")
        value_type = self.parse_type()
        initializer = None
        token = self._peek()
        if token.kind in ("int", "float") or (token.kind == "word" and token.text in ("undef", "null", "true", "false")):
            initializer = self._parse_constant(value_type)
        self.module.add_global(
            GlobalVariable(name, value_type, initializer, is_constant=(kind == "constant"))
        )

    def _parse_constant(self, type_: Type) -> Value:
        token = self._next()
        if token.kind == "int":
            if not isinstance(type_, IntType):
                raise ParseError(f"integer literal for non-integer type {type_}", token.line, token.column)
            return ConstantInt(type_, int(token.text))
        if token.kind == "float":
            return ConstantFloat(FloatType(), float(token.text))
        if token.kind == "word" and token.text == "true":
            return ConstantInt(IntType(1), 1)
        if token.kind == "word" and token.text == "false":
            return ConstantInt(IntType(1), 0)
        if token.kind == "word" and token.text == "null":
            if not isinstance(type_, PointerType):
                raise ParseError("'null' requires a pointer type", token.line, token.column)
            return ConstantPointerNull(type_)
        if token.kind == "word" and token.text == "undef":
            return UndefValue(type_)
        raise ParseError(f"expected a constant, found {token.text!r}", token.line, token.column)

    # -- functions ---------------------------------------------------------------
    def _parse_function(self, define: bool) -> None:
        self._next()  # 'define' or 'declare'
        return_type = self.parse_type()
        name_token = self._expect("global")
        name = name_token.text[1:]
        self._expect("punct", "(")
        param_types: List[Type] = []
        param_names: List[str] = []
        while not self._accept("punct", ")"):
            if param_types:
                self._expect("punct", ",")
            param_types.append(self.parse_type())
            local = self._accept("local")
            param_names.append(local.text[1:] if local else f"arg{len(param_names)}")
        attributes = []
        while self._peek().kind == "word" and self._peek().text in ("readonly", "readnone", "nounwind"):
            attributes.append(self._next().text)
        function = Function(name, FunctionType(return_type, param_types), param_names, attributes)
        self.module.add_function(function)
        if not define:
            return
        self._expect("punct", "{")
        self._parse_body(function)
        self._expect("punct", "}")

    def _parse_body(self, function: Function) -> None:
        values: Dict[str, Value] = {f"%{a.name}": a for a in function.args}
        forwards: Dict[str, _ForwardRef] = {}
        block: Optional[BasicBlock] = None

        def lookup_local(name: str, type_: Type) -> Value:
            if name in values:
                return values[name]
            if name not in forwards:
                forwards[name] = _ForwardRef(type_, name[1:])
            return forwards[name]

        def define_value(name: str, value: Value) -> None:
            if name in values:
                raise ParseError(f"redefinition of {name}")
            values[name] = value

        self._lookup_local = lookup_local  # used by operand helpers
        self._locals = values

        while True:
            token = self._peek()
            if token.kind == "label":
                self._next()
                block = BasicBlock(token.text[:-1], parent=function)
                function.blocks.append(block)
                define_value(f"%{block.name}", block)
            elif token.kind == "punct" and token.text == "}":
                break
            elif token.kind == "eof":
                raise self._error("unexpected end of file inside function body")
            else:
                if block is None:
                    block = BasicBlock("entry", parent=function)
                    function.blocks.append(block)
                    define_value(f"%{block.name}", block)
                inst, result_name = self._parse_instruction()
                block.append(inst)
                if result_name is not None:
                    inst.name = result_name[1:]
                    define_value(result_name, inst)

        # Resolve forward references in one pass over the body.  Keyed by
        # identity: ``forwards`` keeps every placeholder alive, and
        # constants compare by value.
        resolved: Dict[int, Value] = {}
        for name, placeholder in forwards.items():
            if name not in values:
                raise ParseError(f"use of undefined value {name}")
            resolved[id(placeholder)] = values[name]
        if resolved:
            for inst in function.instructions():
                operands = inst.operands
                for index, operand in enumerate(operands):
                    if isinstance(operand, _ForwardRef):
                        operands[index] = resolved[id(operand)]

    # -- operands -----------------------------------------------------------
    def _parse_operand(self, type_: Type) -> Value:
        """Parse an operand whose type is already known."""
        token = self._peek()
        if token.kind == "local":
            self._next()
            return self._lookup_local(token.text, type_)
        if token.kind == "global":
            self._next()
            name = token.text[1:]
            if name in self.module.globals:
                return self.module.globals[name]
            if name in self.module.functions:
                return self.module.functions[name]
            raise ParseError(f"unknown global @{name}", token.line, token.column)
        return self._parse_constant(type_)

    def _parse_typed_operand(self) -> Tuple[Type, Value]:
        type_ = self.parse_type()
        return type_, self._parse_operand(type_)

    def _parse_label_operand(self) -> Value:
        self._expect("word", "label")
        token = self._expect("local")
        return self._lookup_local(token.text, LabelType())

    # -- instructions ---------------------------------------------------------
    def _parse_instruction(self) -> Tuple[Instruction, Optional[str]]:
        token = self._peek()
        result_name: Optional[str] = None
        if token.kind == "local":
            result_name = self._next().text
            self._expect("punct", "=")
        opcode_token = self._expect("word")
        opcode = opcode_token.text
        inst = self._parse_opcode(opcode)
        return inst, result_name

    def _parse_opcode(self, opcode: str) -> Instruction:
        if opcode in BINARY_OPS:
            type_, lhs = self._parse_typed_operand()
            self._expect("punct", ",")
            rhs = self._parse_operand(type_)
            return BinaryOperator(opcode, lhs, rhs)
        if opcode == "icmp":
            predicate = self._expect("word").text
            if predicate not in ICMP_PREDICATES:
                raise self._error(f"unknown icmp predicate {predicate!r}")
            type_, lhs = self._parse_typed_operand()
            self._expect("punct", ",")
            rhs = self._parse_operand(type_)
            return ICmp(predicate, lhs, rhs)
        if opcode == "select":
            cond_type, cond = self._parse_typed_operand()
            self._expect("punct", ",")
            true_type, if_true = self._parse_typed_operand()
            self._expect("punct", ",")
            _, if_false = self._parse_typed_operand()
            return Select(cond, if_true, if_false)
        if opcode in CAST_OPS:
            _, value = self._parse_typed_operand()
            self._expect("word", "to")
            to_type = self.parse_type()
            return Cast(opcode, value, to_type)
        if opcode == "alloca":
            allocated = self.parse_type()
            count = None
            if self._accept("punct", ","):
                _, count = self._parse_typed_operand()
            return Alloca(allocated, count)
        if opcode == "load":
            self.parse_type()  # result type (redundant with pointer type)
            self._expect("punct", ",")
            _, pointer = self._parse_typed_operand()
            return Load(pointer)
        if opcode == "store":
            _, value = self._parse_typed_operand()
            self._expect("punct", ",")
            _, pointer = self._parse_typed_operand()
            return Store(value, pointer)
        if opcode == "getelementptr":
            source_type = self.parse_type()
            self._expect("punct", ",")
            _, pointer = self._parse_typed_operand()
            indices = []
            while self._accept("punct", ","):
                _, index = self._parse_typed_operand()
                indices.append(index)
            return GetElementPtr(source_type, pointer, indices)
        if opcode == "phi":
            type_ = self.parse_type()
            incoming = []
            while True:
                self._expect("punct", "[")
                value = self._parse_operand(type_)
                self._expect("punct", ",")
                label_token = self._expect("local")
                block = self._lookup_local(label_token.text, LabelType())
                self._expect("punct", "]")
                incoming.append((value, block))
                if not self._accept("punct", ","):
                    break
            return Phi(type_, incoming)
        if opcode == "call":
            return_type = self.parse_type()
            callee_token = self._expect("global")
            callee_name = callee_token.text[1:]
            if callee_name not in self.module.functions:
                raise ParseError(f"call to unknown function @{callee_name}",
                                 callee_token.line, callee_token.column)
            callee = self.module.functions[callee_name]
            self._expect("punct", "(")
            args = []
            while not self._accept("punct", ")"):
                if args:
                    self._expect("punct", ",")
                _, arg = self._parse_typed_operand()
                args.append(arg)
            return Call(callee, args, return_type)
        if opcode == "br":
            if self._peek().kind == "word" and self._peek().text == "label":
                target = self._parse_label_operand()
                return Branch(target)
            _, cond = self._parse_typed_operand()
            self._expect("punct", ",")
            if_true = self._parse_label_operand()
            self._expect("punct", ",")
            if_false = self._parse_label_operand()
            return Branch(cond, if_true, if_false)
        if opcode == "ret":
            type_ = self.parse_type()
            if isinstance(type_, VoidType):
                return Ret(None)
            return Ret(self._parse_operand(type_))
        if opcode == "unreachable":
            return Unreachable()
        raise self._error(f"unknown opcode {opcode!r}")


def parse_module(source: str, name: str = "module") -> Module:
    """Parse IR source text into a :class:`~repro.ir.module.Module`."""
    return Parser(source, name).parse_module()


def parse_function(source: str, name: str = "module") -> Function:
    """Parse source text containing exactly one function and return it."""
    module = parse_module(source, name)
    defined = module.defined_functions()
    if len(defined) != 1:
        raise ParseError(f"expected exactly one function definition, found {len(defined)}")
    return defined[0]


__all__ = ["parse_module", "parse_function", "Parser", "tokenize"]
