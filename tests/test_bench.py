"""Tests for the benchmark substrate: generator, corpora, experiments, tables."""

from repro.bench import (
    BENCHMARKS_BY_NAME,
    PAPER_BENCHMARKS,
    build_corpus,
    figure4,
    figure6,
    figure7,
    figure8,
    format_bar_chart,
    format_grouped_bars,
    format_table,
    generate_module,
    table1,
)
from repro.bench.generator import GeneratorConfig, ModuleShape, ProgramGenerator
from repro.ir import Interpreter, print_module, verify_module
from repro.transforms import PAPER_PIPELINE


class TestGenerator:
    def test_deterministic(self):
        first = print_module(generate_module(functions=3, seed=42))
        second = print_module(generate_module(functions=3, seed=42))
        assert first == second

    def test_different_seeds_differ(self):
        first = print_module(generate_module(functions=3, seed=1))
        second = print_module(generate_module(functions=3, seed=2))
        assert first != second

    def test_generated_modules_verify(self):
        for seed in range(4):
            module = generate_module(functions=3, seed=seed)
            verify_module(module)

    def test_generated_functions_terminate_under_interpretation(self):
        module = generate_module(functions=4, seed=5)
        for fn in module.defined_functions():
            args = [3] * len(fn.args)
            result = Interpreter(module).run(fn, args)
            assert isinstance(result.return_value, int)

    def test_declares_external_functions(self):
        module = generate_module(functions=1, seed=0)
        assert "readnone" in module.get_function("ext_pure").attributes
        assert "readonly" in module.get_function("ext_length").attributes
        assert not module.get_function("ext_effect").attributes

    def test_config_controls_loops(self):
        no_loops = GeneratorConfig(loop_probability=0.0, statements=(6, 6))
        shape = ModuleShape(functions=2, seed=3, function_config=no_loops)
        module = ProgramGenerator(shape).generate_module()
        from repro.analysis import LoopInfo

        for fn in module.defined_functions():
            assert len(LoopInfo.compute(fn)) == 0


class TestCorpora:
    def test_twelve_paper_benchmarks(self):
        names = {spec.name for spec in PAPER_BENCHMARKS}
        assert names == {
            "sqlite", "bzip2", "gcc", "h264ref", "hmmer", "lbm",
            "libquantum", "mcf", "milc", "perlbench", "sjeng", "sphinx",
        }
        assert all(spec.paper_functions > 0 for spec in PAPER_BENCHMARKS)

    def test_scaling(self):
        spec = BENCHMARKS_BY_NAME["lbm"]
        small = build_corpus(spec, scale=0.5)
        assert 1 <= len(small.defined_functions()) <= spec.functions

    def test_corpus_is_in_ssa_form(self):
        module = build_corpus(BENCHMARKS_BY_NAME["lbm"], scale=0.5)
        verify_module(module)
        # mem2reg ran: scalar locals are gone, φ-nodes exist somewhere.
        has_phi = any(
            inst.opcode == "phi" for fn in module.defined_functions() for inst in fn.instructions()
        )
        assert has_phi

    def test_corpus_without_mem2reg(self):
        module = build_corpus(BENCHMARKS_BY_NAME["lbm"], scale=0.5, run_mem2reg=False)
        verify_module(module)
        allocas = sum(
            1 for fn in module.defined_functions() for i in fn.instructions() if i.opcode == "alloca"
        )
        assert allocas > 0

    def test_relative_sizes_follow_paper(self):
        rows = {row["benchmark"]: row for row in table1(scale=0.4, benchmarks=["gcc", "lbm", "mcf"])}
        assert rows["gcc"]["functions"] > rows["lbm"]["functions"]
        assert rows["gcc"]["loc"] > rows["mcf"]["loc"]


class TestExperiments:
    def test_table1_columns(self):
        rows = table1(scale=0.25, benchmarks=["lbm", "mcf"])
        assert {"benchmark", "size_bytes", "loc", "functions", "paper_functions"} <= set(rows[0])

    def test_figure4_has_overall_row(self):
        rows = figure4(scale=0.25, benchmarks=["lbm", "bzip2"])
        assert rows[-1]["benchmark"] == "overall"
        for row in rows:
            assert 0.0 <= row["rate"] <= 100.0
            assert row["validated"] <= row["transformed"] <= row["functions"]

    def test_figure6_rates_increase_with_rules(self):
        results = figure6(scale=0.25, benchmarks=["bzip2"])
        labels = list(results)
        first, last = labels[0], labels[-1]
        assert results[last]["bzip2"] >= results[first]["bzip2"]

    def test_figure7_shape(self):
        results = figure7(scale=0.25, benchmarks=["lbm"])
        assert set(results) == {"no rules", "all rules"}
        assert results["all rules"]["lbm"] >= results["no rules"]["lbm"]

    def test_figure8_constfold_helps(self):
        results = figure8(scale=0.25, benchmarks=["bzip2"])
        assert results["all rules"]["bzip2"] >= results["no rules"]["bzip2"]


class TestTables:
    def test_format_table(self):
        text = format_table([{"a": 1, "bee": "xy"}, {"a": 22, "bee": "z"}], title="T")
        assert "T" in text and "bee" in text and "22" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_format_bar_chart(self):
        text = format_bar_chart({"sqlite": 90.0, "gcc": 55.5}, title="rates")
        assert "sqlite" in text and "#" in text and "55.5" in text

    def test_format_grouped_bars(self):
        text = format_grouped_bars({"no rules": {"a": 10.0}, "all": {"a": 90.0}})
        assert "[no rules]" in text and "[all]" in text


class TestChainComparisonExperiment:
    def test_chain_comparison_parity_and_savings(self):
        from repro.bench import chain_comparison

        rows = chain_comparison(scale=0.25, benchmarks=["mcf", "hmmer"])
        assert [row["benchmark"] for row in rows] == ["mcf", "hmmer"]
        for row in rows:
            assert row["identical"], row["mismatches"]
            if row["chains"]:
                # The whole point: chain construction beats per-pair.
                assert row["chain_nodes_built"] < row["per_pair_nodes_built"]
                assert row["chain_normalize_runs"] < row["per_pair_normalize_runs"]


class TestEngineSweepComparisonExperiment:
    def test_engines_produce_identical_records(self):
        from repro.bench import engine_sweep_comparison

        rows = engine_sweep_comparison(scale=0.25, benchmarks=["mcf", "hmmer"])
        assert [row["benchmark"] for row in rows] == ["mcf", "hmmer"]
        for row in rows:
            assert row["identical"], row["mismatches"]
            assert row["records"] > 0
            assert 0 < row["worklist_rule_invocations"] < row["fullscan_rule_invocations"]


class TestPerfGuardAndTriageCLIs:
    @staticmethod
    def _guard_runner(artifact_path, baseline_path):
        import pathlib
        import subprocess
        import sys

        root = pathlib.Path(__file__).resolve().parent.parent

        def run(*extra):
            return subprocess.run(
                [sys.executable, str(root / "benchmarks" / "perf_guard.py"),
                 "--artifact", str(artifact_path), "--baseline", str(baseline_path),
                 *extra],
                capture_output=True, text=True,
                env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})

        return run

    def test_perf_guard_flatten_and_gate_single_scale(self, tmp_path):
        import json

        artifact = {
            "schema": 1, "scale": 0.2,
            "totals": {"chain": {"nodes_built": 100, "nodes_created": 120,
                                 "rule_invocations": 500, "normalize_runs": 5},
                       "per_pair": {"nodes_built": 200, "nodes_created": 240,
                                    "rule_invocations": 900, "normalize_runs": 11}},
        }
        artifact_path = tmp_path / "chain_graphs.json"
        artifact_path.write_text(json.dumps(artifact))
        baseline_path = tmp_path / "baseline.json"
        run = self._guard_runner(artifact_path, baseline_path)

        assert run("--update-baseline").returncode == 0
        assert run().returncode == 0  # identical counters pass
        artifact["totals"]["chain"]["rule_invocations"] = 600  # +20%
        artifact_path.write_text(json.dumps(artifact))
        regression = run()
        assert regression.returncode == 1
        assert "REGRESSION" in regression.stderr
        artifact["totals"]["chain"]["rule_invocations"] = 400  # improvement
        artifact_path.write_text(json.dumps(artifact))
        assert run().returncode == 0

    def test_perf_guard_trendline_gates_super_linear_growth(self, tmp_path):
        import json

        def totals(factor):
            return {"chain": {"nodes_built": 100 * factor,
                              "nodes_created": 120 * factor,
                              "rule_invocations": 500 * factor,
                              "normalize_runs": 5 * factor},
                    "per_pair": {"nodes_built": 200 * factor,
                                 "nodes_created": 240 * factor,
                                 "rule_invocations": 900 * factor,
                                 "normalize_runs": 11 * factor}}

        artifact = {
            "schema": 2, "scale": 0.2, "scales": ["0.1", "0.2"],
            "totals": totals(2),
            "runs": {"0.1": {"totals": totals(1)},
                     "0.2": {"totals": totals(2)}},
        }
        artifact_path = tmp_path / "chain_graphs.json"
        artifact_path.write_text(json.dumps(artifact))
        baseline_path = tmp_path / "baseline.json"
        run = self._guard_runner(artifact_path, baseline_path)

        assert run("--update-baseline").returncode == 0
        baseline = json.loads(baseline_path.read_text())
        assert baseline["schema"] == 2
        assert baseline["growth"]["chain.rule_invocations"] == 2.0
        assert run().returncode == 0  # identical counters and growth pass

        # Super-linear growth regression: both absolutes stay within the
        # 10% tolerance (-5% and +9%) but the growth ratio climbs from
        # 2.0x to ~2.29x (+15%) — only the trendline gate catches it.
        artifact["runs"]["0.1"]["totals"]["chain"]["rule_invocations"] = 475
        artifact["runs"]["0.2"]["totals"]["chain"]["rule_invocations"] = 1090
        artifact["totals"]["chain"]["rule_invocations"] = 1090
        artifact_path.write_text(json.dumps(artifact))
        regression = run()
        assert regression.returncode == 1
        assert "super-linear" in regression.stderr

        # Sub-linear improvement never fails.
        artifact["runs"]["0.2"]["totals"]["chain"]["rule_invocations"] = 900
        artifact["totals"]["chain"]["rule_invocations"] = 900
        artifact_path.write_text(json.dumps(artifact))
        assert run().returncode == 0

        # Scale-set mismatch is an error, not silently ungated.
        artifact["runs"] = {"0.1": {"totals": totals(1)}}
        artifact["scales"] = ["0.1"]
        artifact_path.write_text(json.dumps(artifact))
        mismatch = run()
        assert mismatch.returncode == 1
        assert "scales" in mismatch.stderr

    def test_blame_triage_harvests_artifacts(self, tmp_path):
        import importlib.util
        import json
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "blame_triage", root / "benchmarks" / "blame_triage.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        good = tmp_path / "sweep.json"
        good.write_text(json.dumps({
            "rows": [{"benchmark": "a", "blame": {"gvn": 2, "dse": 1}},
                     {"benchmark": "b", "blame": {"gvn": 1}}],
            "chain_rows": [{"blame": {"licm": 4}}],
        }))
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        histogram = module.harvest_artifacts([good, junk])
        assert histogram == {"gvn": 3, "dse": 1, "licm": 4}
