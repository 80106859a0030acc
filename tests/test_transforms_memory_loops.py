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

    def test_optimized_corpus_ir_is_unchanged(self):
        # Printed IR of the twelve corpora after the paper pipeline and
        # after each pass that replaces values alone, pinned from the
        # implementation that rewrote each replaced value's uses on the
        # spot (one whole-function scan per value).
        import hashlib

        from repro.bench.corpus import PAPER_BENCHMARKS, build_corpus
        from repro.ir.printer import print_module
        from repro.transforms import PAPER_PIPELINE, PassManager

        pipelines = {"paper": PAPER_PIPELINE}
        pipelines.update((name, (name,)) for name in OPTIMIZED_IR_SHA256_AT_0_05
                         if name != "paper")
        digests = {}
        for label, passes in pipelines.items():
            digests[label] = {}
            for spec in PAPER_BENCHMARKS:
                module = build_corpus(spec, 0.05)
                PassManager(passes).run_on_module(module)
                digests[label][spec.name] = hashlib.sha256(
                    print_module(module).encode()).hexdigest()
        assert digests == OPTIMIZED_IR_SHA256_AT_0_05


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


#: Pipeline (or single pass) -> corpus -> sha256 of the printed module at 0.05.
OPTIMIZED_IR_SHA256_AT_0_05 = {
    "paper": {
        "sqlite":
            "08489d9c4efff567ab08895b5e8e406cddf0ba1c3bf4a225400bee92f90ae3b6",
        "bzip2":
            "9a752d5f511ca970393d1b2d678bffe30542f0710c62a067787e012318ebac5b",
        "gcc":
            "6e17c8ab7109ba3c959a5f3181de848ce29365ed142e81dfca2430eee4a2d70a",
        "h264ref":
            "7993d7e32f60639fe00fe4e649f331f118938a5ec7ac08ef9d8c5b6f15158b8c",
        "hmmer":
            "dc1da62e36d3b09700a66f83f5c760b2952d08aef610cfcf2a1d62334d9fb9cd",
        "lbm":
            "e9ee33a8c411553fafeb6a3704024fe85a4b9e2f0e6f439c10f9887397e52891",
        "libquantum":
            "8dbb3f1ef993662b2e020abd63b1f8c3a56fad38d5f2171384dacb81d6e5c51b",
        "mcf":
            "7430c3cde758384a6515a615bbf08a5dbfad1bc09a1b1c9acf5ae120e965c897",
        "milc":
            "5f92eb36c29df5764ca0eea5f7b851f3f5d91bb0e93a4e2df65328dcb799db31",
        "perlbench":
            "85992ef0704ea3f38560c1b3ac7872edc7c2da762c055b29c39e1c68f43a91b0",
        "sjeng":
            "0ca05a87c6fa2d0427d02700ee7c160712c2b7ded515585888aabd2df95c4bf4",
        "sphinx":
            "d5cbc99aedaf4cdf418cdfd12c69ae0a7703a7a634e68789854f392ddb941fff",
    },
    "gvn": {
        "sqlite":
            "a65e78a352484466671bb149be0a4d589b64f29fdedf3c6044daae4a3243023b",
        "bzip2":
            "93dab76793197106765b0aa5f03581678fb05114e64b2bf02c6a11570334f85d",
        "gcc":
            "2ef16d205bcd3643a1669cd84b3b31112c30e5ec9e8f48e0239ab1870a5e63aa",
        "h264ref":
            "b3849482fec256d9a13f9e4b9b0b4c648cf9983db9d762f71c33ebee4ecd4ae1",
        "hmmer":
            "64a0400312d42b7198a65f4a118cb1503db977179b2a8010124f5350526dbb7b",
        "lbm":
            "ccf2ba8bd3ec812b7a2e165845f9b0ceabed442bd69f4dba8c8cb3fee0a16104",
        "libquantum":
            "0b9f638f863df3886c692f5b04734531e4dc8c0cb7fe777843ed3b0775c22cb6",
        "mcf":
            "5d3887243d73f90966fd8c043f30f2da5bc17b94631b09281f99669a8cc2c365",
        "milc":
            "d11c506992b9f22154e70e84623ca68762489033c6ad2dce50b3ab7c38e3afb5",
        "perlbench":
            "5b6d3287e9d6a4cfde859000245ff6bbf194acb6998bf858f098cf05f28d48d9",
        "sjeng":
            "cb995f713e6f46be37a8668d8bd961c392e427eb139c47d9ce190c85e696ee0f",
        "sphinx":
            "9b456ea4ed41ef9f4da1389ee82409032eb08cceae1a82629543c33bc68cf213",
    },
    "sccp": {
        "sqlite":
            "3e7d9cb419a95473cf715f957d2bac937c7e5394702ef28bf6340ddeade15ee6",
        "bzip2":
            "7fa1d3206e34820f27e73f2f1921991e8766201cfad0b29310d586ee0aea3a67",
        "gcc":
            "b3f4d8412c88fcc765b072edf155eefea33e0f7d00abf4078c5431e2da06f929",
        "h264ref":
            "0c1742d7676e4597f6597cdd52413970e5ec7a6e613b93d362eaf3d052d423b4",
        "hmmer":
            "ebb926671acc24fd37865da2ce128e972047e6b8ac51cb19698dfaf24d941e65",
        "lbm":
            "da3636fe4670bd20f9e0c6fc1b8ba00d3cd317f4381ab8f9c29ef19f90855453",
        "libquantum":
            "9e2ccb0f867f9521cc070a2e630b509ce17c06f401ff30f58fe3c471b290a751",
        "mcf":
            "748568a13f3afec566040baf5d10eca7b9e0c0f56e0dc2b1f9d5e46fc7f05894",
        "milc":
            "866b0c157c2fcc55e9f1ecc5da9ad7852e4c6b9ed754905acee889b7cd3bd1e7",
        "perlbench":
            "7937bc29d681d5ab6b238e61f8fd9c18cf13ce7774f54008780700f16b1ea31a",
        "sjeng":
            "562dd086d677ce744b327573a64b00edbaf8391a00d1dd1e8f3491489c57db83",
        "sphinx":
            "f552c0de9150e7c8b9419fa3a4e655f2a80bc59bfbbd33dec0603db5013759d3",
    },
    "instcombine": {
        "sqlite":
            "3268faec9a02390003c82773f0015505095f0856175e505c83db3d386177d8a4",
        "bzip2":
            "0270b8aaaac96f64df7394356eec187ed3002abae0c08a0f95fe76c2a35049bd",
        "gcc":
            "4ae149597bd45b2c19cf1bd48cf1848f595a238f795bb8c5e0d2af2a71299bf3",
        "h264ref":
            "9be7f173837d11ec1f629c84574759cb7728d953515b80d6c259495b981bed8f",
        "hmmer":
            "15741f7d795a93e9e9a13117c846433722a1c9d7d189d006451d005d0beadb25",
        "lbm":
            "e91536e1bade303ce5a322abd0b65da474b1187ab3f199c366506e79ad07d140",
        "libquantum":
            "0b43db9c790d9e7c41733530f617202f4b4c5fe4584ca2bc57bdd8068f8d59a5",
        "mcf":
            "a51752691782344840b984e8d229002a5ddab5ae5f65e18b715190a09230fa9d",
        "milc":
            "eb15964dee87bf60ac3ad80ea346d3c0e76bffd80ef8a2eafa75eced6768ab6e",
        "perlbench":
            "1c5aa8756e8778fb96c9d7ea94a0d76f5102ebe4c5e941c697030f8e3b9e479a",
        "sjeng":
            "8bc390f4074db87270c20f14b95bb8418c660e5e49d76c8bb1bfc4ae7134cfc7",
        "sphinx":
            "a6b04b9d6091e2458ff63fd054dc83ddc3404f5e51b922b30f4967e53ccd6339",
    },
    "constprop": {
        "sqlite":
            "60538fa0aca483aca78c628eb6ff537a01948a3daa787b6d62fdeb9cfc985330",
        "bzip2":
            "9489322a49099a3f224768d6869c6c9c635c099e44d644683dbf0e2482a7c84d",
        "gcc":
            "3dbf3ae46f805deeca3d65a2b1a1fd190bb0517147074cbc78600a2785e8af1c",
        "h264ref":
            "0c1742d7676e4597f6597cdd52413970e5ec7a6e613b93d362eaf3d052d423b4",
        "hmmer":
            "0ce63675ff6ef0661586f2cd793e3be15f0081205154680ae22aa98840e6f0bc",
        "lbm":
            "da3636fe4670bd20f9e0c6fc1b8ba00d3cd317f4381ab8f9c29ef19f90855453",
        "libquantum":
            "9e2ccb0f867f9521cc070a2e630b509ce17c06f401ff30f58fe3c471b290a751",
        "mcf":
            "ec38ca2d52849654c8c1ff950f11ffb2f2ddffe8de38e840dcbe63caa14306a2",
        "milc":
            "e1651a145dc0eda01782a610ce3f833888c4fbae25bb00ac97a5ef070273b112",
        "perlbench":
            "0775d990d426aa06d4ceddf5e9ae071f71c7284200f7c855cb0c807e1b22c463",
        "sjeng":
            "cb754e3db6ffc3af0b108a53ccbd6082639aa76dfc3e8f9a29d79fd171a6a0ca",
        "sphinx":
            "f52a7dae34273d9d226a6c1e297b6150ef214926105b3a081ad38e6145e8adde",
    },
    "simplifycfg": {
        "sqlite":
            "3b029eaa832ce51932cc7e0a4e671658429dbc27e5d4d9f5b0d92d2500f7ad97",
        "bzip2":
            "140dbb6eb19ffecdd76603098429a1bff51f2a6bcb33de13a26b41b232556dd0",
        "gcc":
            "40f13d1d1e34f4abf1079700759863ec41e4801b4430736b6e836b9cae3130b2",
        "h264ref":
            "34dd7d16275fbf3b567ed7e89d307d00dbcedf4596a36b116d55ec3f9ac9d321",
        "hmmer":
            "d00a6f54f6b7802f9abe45db174a7cc8933e83c3c49ea1601219250f38ebdd78",
        "lbm":
            "3299ea513c3b658411f6fb1df0906c165cb5e36bbaf070dd4c580d46da3d5635",
        "libquantum":
            "9c8449f9b9ef86e3d2d449b0a7a825c4fdd4e3ef8d66826d720b66f00518afc6",
        "mcf":
            "30da88644e5e96f1ad59845f893c0a43137ba015db2152bae08027e644a5d4c0",
        "milc":
            "f77a5522c7de966426b179aa40a0d5f704b252b7acebc5d4c82a4b5fe2071609",
        "perlbench":
            "bc6a96f8b342e51082c9b5b418c4e0333e9f1a28f59d0b93390f792912307f3b",
        "sjeng":
            "c83534e873c1d1ab585d10b6db40dfe7471cb6f735ba5a91a4e468eb24c4454f",
        "sphinx":
            "7df03271e8f7a46501dee94ecd84713b90e8a9a843dfc9d01250b206a48abd30",
    },
    "bug-bad-load-forwarding": {
        "sqlite":
            "3b029eaa832ce51932cc7e0a4e671658429dbc27e5d4d9f5b0d92d2500f7ad97",
        "bzip2":
            "62a49624453e034bb0098be194276fd9d33ef88c80de94f5bdc02cbc270b9ee8",
        "gcc":
            "cf4c9b8402a68748eba8176573bb64d6932d0b58eac252372e7da927e9824ea5",
        "h264ref":
            "34dd7d16275fbf3b567ed7e89d307d00dbcedf4596a36b116d55ec3f9ac9d321",
        "hmmer":
            "d00a6f54f6b7802f9abe45db174a7cc8933e83c3c49ea1601219250f38ebdd78",
        "lbm":
            "3299ea513c3b658411f6fb1df0906c165cb5e36bbaf070dd4c580d46da3d5635",
        "libquantum":
            "9c8449f9b9ef86e3d2d449b0a7a825c4fdd4e3ef8d66826d720b66f00518afc6",
        "mcf":
            "30da88644e5e96f1ad59845f893c0a43137ba015db2152bae08027e644a5d4c0",
        "milc":
            "5c1bfc62aae0190b92180fa073b7ca0fee213e6b12e5f1428d5598e6e3a6ece8",
        "perlbench":
            "bc6a96f8b342e51082c9b5b418c4e0333e9f1a28f59d0b93390f792912307f3b",
        "sjeng":
            "4c06ae3993cbf4ca32888f09d041f4ea33daafce2457858cd9d313213fc7c9da",
        "sphinx":
            "7df03271e8f7a46501dee94ecd84713b90e8a9a843dfc9d01250b206a48abd30",
    },
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
