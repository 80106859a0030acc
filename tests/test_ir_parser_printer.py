"""Tests for the textual IR parser and printer (including round-trips)."""

import pytest

from repro.errors import ParseError
from repro.ir import (
    Branch,
    ConstantInt,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    parse_function,
    parse_module,
    print_function,
    print_module,
    verify_module,
)


class TestParserBasics:
    def test_parse_simple_function(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32 %b) {
            entry:
              %x = add i32 %a, %b
              ret i32 %x
            }
            """
        )
        assert fn.name == "f"
        assert [a.name for a in fn.args] == ["a", "b"]
        assert fn.entry.instructions[0].opcode == "add"

    def test_parse_declaration_attributes(self):
        module = parse_module("declare i32 @strlen(i8* %s) readonly")
        declaration = module.get_function("strlen")
        assert declaration.is_declaration
        assert "readonly" in declaration.attributes

    def test_parse_globals(self):
        module = parse_module("@g = global i32 42\n@c = constant i32 7")
        assert module.globals["g"].initializer.value == 42
        assert module.globals["c"].is_constant

    def test_parse_all_instruction_kinds(self, memory_source, loop_source, diamond_source):
        for source in (memory_source, loop_source, diamond_source):
            module = parse_module(source)
            verify_module(module)

    def test_forward_references_resolved(self, loop_source):
        fn = parse_function(loop_source)
        phi = fn.block("loop").phis()[0]
        incoming_values = [v for v, _ in phi.incoming]
        # The %inext forward reference must point to the real instruction.
        add = [i for i in fn.block("body").instructions if i.name == "inext"][0]
        assert any(v is add for v in incoming_values)

    def test_parse_negative_and_boolean_constants(self):
        fn = parse_function(
            """
            define i1 @f(i32 %a) {
            entry:
              %x = add i32 %a, -7
              %c = icmp eq i32 %x, 0
              %d = and i1 %c, true
              ret i1 %d
            }
            """
        )
        add = fn.entry.instructions[0]
        assert isinstance(add.rhs, ConstantInt) and add.rhs.value == -7

    def test_parse_phi_gep_call(self):
        module = parse_module(
            """
            declare i32 @ext(i32 %x)
            define i32 @f(i32* %p, i32 %n) {
            entry:
              %g = getelementptr i32, i32* %p, i32 %n
              %v = load i32, i32* %g
              %c = call i32 @ext(i32 %v)
              br label %next
            next:
              %r = phi i32 [ %c, %entry ]
              ret i32 %r
            }
            """
        )
        fn = module.get_function("f")
        assert isinstance(fn.entry.instructions[0], GetElementPtr)
        assert isinstance(fn.entry.instructions[1], Load)
        assert isinstance(fn.block("next").instructions[0], Phi)


class TestParserErrors:
    def test_unknown_opcode(self):
        with pytest.raises(ParseError):
            parse_function("define i32 @f() {\nentry:\n  %x = bogus i32 1, 2\n  ret i32 %x\n}")

    def test_undefined_value(self):
        with pytest.raises(ParseError):
            parse_function("define i32 @f() {\nentry:\n  ret i32 %missing\n}")

    def test_unknown_callee(self):
        with pytest.raises(ParseError):
            parse_function(
                "define i32 @f() {\nentry:\n  %x = call i32 @nothere(i32 1)\n  ret i32 %x\n}"
            )

    def test_redefinition(self):
        with pytest.raises(ParseError):
            parse_function(
                "define i32 @f() {\nentry:\n  %x = add i32 1, 2\n  %x = add i32 3, 4\n  ret i32 %x\n}"
            )

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_module("define i32 @f() { entry: ret i32 1 } $$$")

    def test_parse_function_requires_exactly_one_definition(self):
        with pytest.raises(ParseError):
            parse_function("declare i32 @f(i32 %x)")


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["loop_source", "diamond_source", "memory_source"])
    def test_print_parse_roundtrip(self, fixture, request):
        source = request.getfixturevalue(fixture)
        module = parse_module(source)
        text = print_module(module)
        module2 = parse_module(text)
        verify_module(module2)
        # Printing again is a fixpoint (stable text representation).
        assert print_module(module2) == text

    def test_roundtrip_generated_corpus(self, mini_corpus):
        text = print_module(mini_corpus)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert len(reparsed.defined_functions()) == len(mini_corpus.defined_functions())
        assert reparsed.instruction_count() == mini_corpus.instruction_count()

    def test_many_forward_references_round_trip(self):
        # φ back edges from a latch defined last, plus a chain of forward
        # branch targets: every one of them is a forward reference.
        phis, chain, latch = 40, 60, []
        lines = ["define i32 @f(i32 %n) {", "entry:", "  br label %head", "head:"]
        for index in range(phis):
            lines.append(f"  %p{index} = phi i32 [ 0, %entry ], [ %v{index}, %latch ]")
        lines += ["  %c = icmp slt i32 %p0, %n", "  br i1 %c, label %s0, label %exit"]
        for index in range(chain):
            target = f"s{index + 1}" if index + 1 < chain else "latch"
            lines += [f"s{index}:", f"  br label %{target}"]
        for index in range(phis):
            previous = f"%v{index - 1}" if index else "1"
            latch.append(f"  %v{index} = add i32 %p{index}, {previous}")
        lines += ["latch:"] + latch + ["  br label %head", "exit:",
                                       f"  ret i32 %p{phis - 1}", "}"]
        source = "\n".join(lines)
        function = parse_function(source)
        assert print_function(function) == source
        latch_block = function.block("latch")
        head = function.block("head")
        for index, phi in enumerate(head.phis()):
            value, block = phi.incoming[1]
            assert value is latch_block.instructions[index]
            assert block is latch_block
        assert print_function(parse_function(print_function(function))) == source

    def test_paper_corpora_round_trip_byte_identically(self):
        from repro.bench.corpus import PAPER_BENCHMARKS, build_corpus
        for spec in PAPER_BENCHMARKS:
            text = print_module(build_corpus(spec, 0.1))
            assert print_module(parse_module(text, name=spec.name)) == text, spec.name

    def test_printer_names_anonymous_values(self):
        fn = parse_function(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n  ret i32 %x\n}"
        )
        # Drop the name to force the printer to invent one.
        fn.entry.instructions[0].name = ""
        text = print_function(fn)
        assert "%0 = add" in text
        assert "ret i32 %0" in text
