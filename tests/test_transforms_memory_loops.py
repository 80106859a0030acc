"""Tests for mem2reg, GVN, DSE, LICM, loop deletion and loop unswitching."""

from repro.analysis import LoopInfo
from repro.ir import (
    Interpreter,
    clone_function,
    clone_module,
    parse_function,
    parse_module,
    run_function,
    verify_function,
)
from repro.transforms import (
    PAPER_PIPELINE,
    PassManager,
    dse,
    get_pass,
    gvn,
    licm,
    loop_deletion,
    loop_unswitch,
    mem2reg,
)

PROMOTABLE = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = alloca i32
  store i32 %a, i32* %x
  %c = icmp slt i32 %a, %b
  br i1 %c, label %then, label %join
then:
  store i32 %b, i32* %x
  br label %join
join:
  %v = load i32, i32* %x
  ret i32 %v
}
"""

LOOP_WITH_ALLOCA = """
define i32 @f(i32 %n) {
entry:
  %acc = alloca i32
  %i = alloca i32
  store i32 0, i32* %acc
  store i32 0, i32* %i
  br label %header
header:
  %iv = load i32, i32* %i
  %c = icmp slt i32 %iv, %n
  br i1 %c, label %body, label %exit
body:
  %old = load i32, i32* %acc
  %new = add i32 %old, 3
  store i32 %new, i32* %acc
  %inext = add i32 %iv, 1
  store i32 %inext, i32* %i
  br label %header
exit:
  %r = load i32, i32* %acc
  ret i32 %r
}
"""


class TestMem2Reg:
    def test_promotes_and_places_phi(self):
        fn = parse_function(PROMOTABLE)
        assert mem2reg(fn)
        verify_function(fn)
        assert not any(i.opcode in ("alloca", "load", "store") for i in fn.instructions())
        assert fn.block("join").phis()

    def test_loop_promotion_preserves_semantics(self):
        module = parse_module(LOOP_WITH_ALLOCA)
        expected = run_function(module, "f", [5]).return_value
        fn = module.get_function("f")
        mem2reg(fn)
        verify_function(fn)
        assert run_function(module, "f", [5]).return_value == expected == 15
        assert fn.block("header").phis()

    def test_non_promotable_alloca_kept(self):
        fn = parse_function(
            """
            define i32 @f(i32 %i) {
            entry:
              %arr = alloca i32, i32 8
              %p = getelementptr i32, i32* %arr, i32 %i
              store i32 1, i32* %p
              %v = load i32, i32* %p
              ret i32 %v
            }
            """
        )
        mem2reg(fn)
        assert any(i.opcode == "alloca" for i in fn.instructions())

    def test_idempotent(self):
        fn = parse_function(PROMOTABLE)
        mem2reg(fn)
        assert not mem2reg(fn)

    def test_promoted_load_feeding_store_and_phi(self):
        # %t is a promoted load whose value is stored to another promoted
        # alloca and flows into an existing φ; %u reloads what was just
        # stored.  Every use must end up at the reaching value %a.
        source = """
            define i32 @f(i32 %a, i32 %b) {
            entry:
              %x = alloca i32
              %y = alloca i32
              store i32 %a, i32* %x
              store i32 %b, i32* %y
              %c = icmp slt i32 %a, %b
              br i1 %c, label %then, label %join
            then:
              %t = load i32, i32* %x
              store i32 %t, i32* %y
              %u = load i32, i32* %y
              %d = add i32 %u, 1
              br label %join
            join:
              %p = phi i32 [ %t, %then ], [ 0, %entry ]
              %e = phi i32 [ %d, %then ], [ 0, %entry ]
              %v = load i32, i32* %y
              %s = add i32 %v, %p
              %r = add i32 %s, %e
              ret i32 %r
            }
        """
        module = parse_module(source)
        expected = [run_function(module, "f", args).return_value
                    for args in ([1, 2], [3, 2])]
        fn = module.get_function("f")
        assert mem2reg(fn)
        verify_function(fn)
        assert not any(i.opcode in ("alloca", "load", "store")
                       for i in fn.instructions())
        a = fn.args[0]
        then = fn.block("then")
        p = next(phi for phi in fn.block("join").phis() if phi.name == "p")
        assert p.incoming_for(then) is a
        add_d = next(i for i in fn.instructions() if i.name == "d")
        assert add_d.operands[0] is a
        # The φ mem2reg placed for %y receives %a from %then.
        placed = [phi for phi in fn.block("join").phis()
                  if phi.name not in ("p", "e")]
        assert [phi.incoming_for(then) for phi in placed] == [a]
        assert [run_function(module, "f", args).return_value
                for args in ([1, 2], [3, 2])] == expected

    def test_corpus_ir_is_unchanged(self):
        # Printed IR of the twelve paper corpora after mem2reg, pinned from
        # the implementation that rewrote each load's uses immediately.
        import hashlib

        from repro.bench.corpus import PAPER_BENCHMARKS, build_corpus
        from repro.ir.printer import print_module

        digests = {
            spec.name: hashlib.sha256(
                print_module(build_corpus(spec, 0.05)).encode()).hexdigest()
            for spec in PAPER_BENCHMARKS
        }
        assert digests == CORPUS_IR_SHA256_AT_0_05


CORPUS_IR_SHA256_AT_0_05 = {
    "sqlite": "3b029eaa832ce51932cc7e0a4e671658429dbc27e5d4d9f5b0d92d2500f7ad97",
    "bzip2": "140dbb6eb19ffecdd76603098429a1bff51f2a6bcb33de13a26b41b232556dd0",
    "gcc": "40f13d1d1e34f4abf1079700759863ec41e4801b4430736b6e836b9cae3130b2",
    "h264ref": "34dd7d16275fbf3b567ed7e89d307d00dbcedf4596a36b116d55ec3f9ac9d321",
    "hmmer": "d00a6f54f6b7802f9abe45db174a7cc8933e83c3c49ea1601219250f38ebdd78",
    "lbm": "3299ea513c3b658411f6fb1df0906c165cb5e36bbaf070dd4c580d46da3d5635",
    "libquantum": "9c8449f9b9ef86e3d2d449b0a7a825c4fdd4e3ef8d66826d720b66f00518afc6",
    "mcf": "30da88644e5e96f1ad59845f893c0a43137ba015db2152bae08027e644a5d4c0",
    "milc": "f77a5522c7de966426b179aa40a0d5f704b252b7acebc5d4c82a4b5fe2071609",
    "perlbench": "bc6a96f8b342e51082c9b5b418c4e0333e9f1a28f59d0b93390f792912307f3b",
    "sjeng": "a95d3668f1d3a31cff3b21d5e3f152092423662e67b91c80f57e47231d357876",
    "sphinx": "7df03271e8f7a46501dee94ecd84713b90e8a9a843dfc9d01250b206a48abd30",
}


class TestGVN:
    def test_removes_redundant_expression(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32 %b) {
            entry:
              %x = add i32 %a, %b
              %y = add i32 %a, %b
              %r = mul i32 %x, %y
              ret i32 %r
            }
            """
        )
        assert gvn(fn)
        adds = [i for i in fn.instructions() if i.opcode == "add"]
        assert len(adds) == 1

    def test_commutative_expressions_merge(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32 %b) {
            entry:
              %x = add i32 %a, %b
              %y = add i32 %b, %a
              %r = sub i32 %x, %y
              ret i32 %r
            }
            """
        )
        gvn(fn)
        assert len([i for i in fn.instructions() if i.opcode == "add"]) == 1

    def test_dominating_expression_reused_across_blocks(self, diamond_source):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32 %b) {
            entry:
              %x = add i32 %a, %b
              %c = icmp slt i32 %a, %b
              br i1 %c, label %then, label %join
            then:
              %y = add i32 %a, %b
              br label %join
            join:
              %r = phi i32 [ %y, %then ], [ %x, %entry ]
              ret i32 %r
            }
            """
        )
        gvn(fn)
        assert len([i for i in fn.instructions() if i.opcode == "add"]) == 1

    def test_sibling_blocks_do_not_share(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i1 %c) {
            entry:
              br i1 %c, label %left, label %right
            left:
              %x = add i32 %a, 1
              br label %join
            right:
              %y = add i32 %a, 1
              br label %join
            join:
              %r = phi i32 [ %x, %left ], [ %y, %right ]
              ret i32 %r
            }
            """
        )
        gvn(fn)
        verify_function(fn)
        # Neither branch dominates the other: both adds must survive.
        assert len([i for i in fn.instructions() if i.opcode == "add"]) == 2

    def test_store_to_load_forwarding(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a) {
            entry:
              %p = alloca i32
              %q = alloca i32
              store i32 %a, i32* %p
              store i32 7, i32* %q
              %v = load i32, i32* %p
              ret i32 %v
            }
            """
        )
        gvn(fn)
        assert not any(i.opcode == "load" for i in fn.instructions())
        assert fn.entry.terminator.value is fn.args[0]

    def test_clobbered_load_not_forwarded(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32* %unknown) {
            entry:
              %p = alloca i32
              store i32 %a, i32* %p
              store i32 9, i32* %unknown
              %v = load i32, i32* %p
              ret i32 %v
            }
            """
        )
        gvn(fn)
        # %unknown may alias... actually allocas never alias arguments, so
        # this forwarding IS legal and should happen.
        assert fn.entry.terminator.value is fn.args[0]

    def test_redundant_load_elimination(self):
        fn = parse_function(
            """
            define i32 @f(i32* %p) {
            entry:
              %x = load i32, i32* %p
              %y = load i32, i32* %p
              %r = add i32 %x, %y
              ret i32 %r
            }
            """
        )
        gvn(fn)
        assert len([i for i in fn.instructions() if i.opcode == "load"]) == 1


class TestDSE:
    def test_removes_overwritten_store(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32* %p) {
            entry:
              store i32 1, i32* %p
              store i32 %a, i32* %p
              %v = load i32, i32* %p
              ret i32 %v
            }
            """
        )
        assert dse(fn)
        stores = [i for i in fn.instructions() if i.opcode == "store"]
        assert len(stores) == 1
        assert stores[0].value is fn.args[0]

    def test_keeps_store_with_intervening_load(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32* %p) {
            entry:
              store i32 1, i32* %p
              %v = load i32, i32* %p
              store i32 %a, i32* %p
              ret i32 %v
            }
            """
        )
        dse(fn)
        assert len([i for i in fn.instructions() if i.opcode == "store"]) == 2

    def test_removes_store_to_never_read_alloca(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a) {
            entry:
              %p = alloca i32
              store i32 %a, i32* %p
              ret i32 %a
            }
            """
        )
        assert dse(fn)
        assert not any(i.opcode == "store" for i in fn.instructions())


class TestLICM:
    def test_hoists_invariant_computation(self, loop_source):
        fn = parse_function(loop_source)
        assert licm(fn)
        body_opcodes = [i.opcode for i in fn.block("body").instructions]
        assert "mul" not in body_opcodes
        entry_opcodes = [i.opcode for i in fn.block("entry").instructions]
        assert "mul" in entry_opcodes

    def test_semantics_preserved(self, loop_source):
        module = parse_module(loop_source)
        expected = run_function(module, "loopy", [3, 5]).return_value
        licm(module.get_function("loopy"))
        verify_function(module.get_function("loopy"))
        assert run_function(module, "loopy", [3, 5]).return_value == expected

    def test_does_not_hoist_variant_computation(self, loop_source):
        fn = parse_function(loop_source)
        licm(fn)
        # The accumulator add uses the loop-carried phi: must stay inside.
        assert any(i.opcode == "add" for i in fn.block("body").instructions)

    def test_hoists_load_with_no_aliasing_store(self):
        fn = parse_function(
            """
            define i32 @f(i32* %p, i32 %n) {
            entry:
              %q = alloca i32
              br label %header
            header:
              %i = phi i32 [ 0, %entry ], [ %inext, %body ]
              %c = icmp slt i32 %i, %n
              br i1 %c, label %body, label %exit
            body:
              %v = load i32, i32* %p
              store i32 %v, i32* %q
              %inext = add i32 %i, 1
              br label %header
            exit:
              ret i32 0
            }
            """
        )
        licm(fn)
        assert any(i.opcode == "load" for i in fn.entry.instructions)

    def test_hoists_readonly_call(self):
        fn_module = parse_module(
            """
            declare i32 @strlen(i32 %p) readonly
            define i32 @f(i32 %p, i32 %n) {
            entry:
              br label %header
            header:
              %i = phi i32 [ 0, %entry ], [ %inext, %body ]
              %acc = phi i32 [ 0, %entry ], [ %accnext, %body ]
              %c = icmp slt i32 %i, %n
              br i1 %c, label %body, label %exit
            body:
              %len = call i32 @strlen(i32 %p)
              %accnext = add i32 %acc, %len
              %inext = add i32 %i, 1
              br label %header
            exit:
              ret i32 %acc
            }
            """
        )
        fn = fn_module.get_function("f")
        licm(fn)
        assert any(i.opcode == "call" for i in fn.entry.instructions)


class TestLoopDeletion:
    def test_deletes_dead_loop(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32 %n) {
            entry:
              br label %header
            header:
              %i = phi i32 [ 0, %entry ], [ %inext, %body ]
              %c = icmp slt i32 %i, %n
              br i1 %c, label %body, label %exit
            body:
              %junk = mul i32 %i, 3
              %inext = add i32 %i, 1
              br label %header
            exit:
              ret i32 %a
            }
            """
        )
        assert loop_deletion(fn)
        verify_function(fn)
        assert len(LoopInfo.compute(fn)) == 0

    def test_deletes_invariant_loop_and_rewrites_uses(self):
        fn = parse_function(
            """
            define i32 @f(i32 %a, i32 %n) {
            entry:
              %x0 = add i32 %a, 3
              br label %header
            header:
              %i = phi i32 [ 0, %entry ], [ %inext, %body ]
              %x = phi i32 [ %x0, %entry ], [ %x0, %body ]
              %c = icmp slt i32 %i, %n
              br i1 %c, label %body, label %exit
            body:
              %inext = add i32 %i, 1
              br label %header
            exit:
              ret i32 %x
            }
            """
        )
        assert loop_deletion(fn)
        verify_function(fn)
        ret = [b.terminator for b in fn.blocks if b.terminator.opcode == "ret"][0]
        assert ret.value.name == "x0"

    def test_keeps_loop_with_stores(self, parse):
        fn = parse_function(
            """
            define i32 @f(i32* %p, i32 %n) {
            entry:
              br label %header
            header:
              %i = phi i32 [ 0, %entry ], [ %inext, %body ]
              %c = icmp slt i32 %i, %n
              br i1 %c, label %body, label %exit
            body:
              store i32 %i, i32* %p
              %inext = add i32 %i, 1
              br label %header
            exit:
              ret i32 0
            }
            """
        )
        assert not loop_deletion(fn)
        assert len(LoopInfo.compute(fn)) == 1

    def test_keeps_loop_with_escaping_varying_value(self, loop_source):
        fn = parse_function(loop_source)
        assert not loop_deletion(fn)


class TestLoopUnswitch:
    UNSWITCHABLE = """
    define i32 @f(i32* %p, i32 %n, i1 %flag) {
    entry:
      br label %header
    header:
      %i = phi i32 [ 0, %entry ], [ %inext, %latch ]
      %c = icmp slt i32 %i, %n
      br i1 %c, label %body, label %exit
    body:
      br i1 %flag, label %then, label %else
    then:
      store i32 1, i32* %p
      br label %latch
    else:
      store i32 2, i32* %p
      br label %latch
    latch:
      %inext = add i32 %i, 1
      br label %header
    exit:
      ret i32 0
    }
    """

    def test_unswitches_invariant_branch(self):
        fn = parse_function(self.UNSWITCHABLE)
        assert loop_unswitch(fn)
        verify_function(fn)
        # Two loops now exist (the original and the clone).
        assert len(LoopInfo.compute(fn)) == 2

    def test_unswitch_preserves_semantics(self):
        module = parse_module(self.UNSWITCHABLE)
        fn = module.get_function("f")
        interpreter = Interpreter(module)
        address = interpreter.allocate(1)
        interpreter.run(fn, [address, 3, 1])
        expected = interpreter.memory[address]

        loop_unswitch(fn)
        verify_function(fn)
        interpreter2 = Interpreter(module)
        address2 = interpreter2.allocate(1)
        interpreter2.run(fn, [address2, 3, 1])
        assert interpreter2.memory[address2] == expected == 1

    def test_no_unswitch_without_invariant_branch(self, loop_source):
        fn = parse_function(loop_source)
        assert not loop_unswitch(fn)


class TestPipelineDifferential:
    """End-to-end: the whole pipeline must preserve interpreter behaviour."""

    def test_pipeline_differential_on_corpus(self, mini_corpus):
        optimized = clone_module(mini_corpus)
        PassManager(PAPER_PIPELINE).run_on_module(optimized)
        for fn in optimized.defined_functions():
            verify_function(fn)
        for fn in mini_corpus.defined_functions():
            for base in [(1, 2, 3, 4, 5), (9, -2, 0, 7, 3)]:
                args = list(base[: len(fn.args)])
                before = Interpreter(mini_corpus).run(fn, args).return_value
                after = Interpreter(optimized).run(optimized.get_function(fn.name), args).return_value
                assert before == after

    def test_buggy_passes_change_behaviour_or_are_dead(self, mini_corpus):
        """Fault injectors either change observable behaviour or hit dead code."""
        from repro.transforms import ALL_BUGGY_PASSES

        injected = 0
        for name in ALL_BUGGY_PASSES:
            for fn in mini_corpus.defined_functions():
                mutated = clone_function(fn)
                if get_pass(name)(mutated):
                    injected += 1
                    verify_function(mutated)
        assert injected > 0
