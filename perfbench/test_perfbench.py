"""Tests of the benchmark itself: span arithmetic, checks, smoke runs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import repro.validator
from repro.ir import parse_module

import tracer
from tracer import Span, SpanRecorder, layer_totals
from workloads import oracle_disagreements, record_failed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)
        traced_leaf()

    traced_leaf = recorder.wrap("build", "leaf", leaf)
    traced_middle = recorder.wrap("validate", "middle", middle)
    traced_outer = recorder.wrap("plan", "outer", lambda: (clock.advance(3.0), traced_middle()))
    traced_outer()

    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    assert [span.self_s for span in by_name["leaf"]] == [2.0, 2.0]
    assert by_name["middle"][0].self_s == pytest.approx(1.5)
    assert by_name["middle"][0].duration == pytest.approx(5.5)
    assert by_name["outer"][0].self_s == pytest.approx(3.0)
    assert by_name["middle"][0].parent == by_name["outer"][0].id
    totals = layer_totals(recorder.spans)
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(8.5)
    assert totals["build"]["calls"] == 2


def test_inclusive_time_counts_a_recursive_layer_once():
    spans = [Span(1, None, "normalize", "outer", 0.0, 4.0, 1.0),
             Span(2, 1, "normalize", "inner", 1.0, 4.0, 3.0),
             Span(3, None, "plan", "p", 4.0, 5.0, 0.5),
             Span(4, 3, "normalize", "again", 4.0, 4.5, 0.5)]
    totals = layer_totals(spans)
    assert totals["normalize"]["inclusive_s"] == pytest.approx(4.5)
    assert totals["normalize"]["self_s"] == pytest.approx(4.5)


def test_install_rebinds_functions_imported_by_name():
    import importlib

    # ``repro.validator.validate`` the attribute is the function, not the module.
    validate_module = importlib.import_module("repro.validator.validate")
    builder = importlib.import_module("repro.vgraph.builder")

    original = builder.build_chain_graph
    with SpanRecorder() as recorder:
        assert validate_module.build_chain_graph is not original
        assert validate_module.build_chain_graph is builder.build_chain_graph
        assert builder.build_chain_graph.__traced_original__ is original
    assert validate_module.build_chain_graph is original
    assert builder.build_chain_graph is original
    assert not recorder._patches


def test_recorder_times_real_layers():
    before = parse_module("""
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  ret i32 %x
}
""").get_function("f")
    with SpanRecorder() as recorder:
        # Looked up at call time, so the call goes through the wrapper.
        assert repro.validator.validate(before, before).is_success
    layers = {span.layer for span in recorder.spans}
    assert {"validate", "build", "normalize"} <= layers


PLANTED = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %x = add i32 %a, %b
  ret i32 %x
}
"""


def test_oracle_reports_a_planted_disagreement():
    original = parse_module(PLANTED, name="m")
    broken = parse_module(PLANTED.replace("add", "sub"), name="m")
    rng = random.Random(0)
    assert oracle_disagreements(original, broken, ["f"], rng)
    assert not oracle_disagreements(original, parse_module(PLANTED, name="m"),
                                    ["f"], random.Random(0))


def test_failed_reasons_count_as_failures():
    ok = {"reason": "equal", "pass_verdicts": {"gvn": (True, "equal")}}
    rejected = {"reason": "not-equal", "pass_verdicts": {}}
    timed_out = {"reason": None, "pass_verdicts": {"gvn": (False, "timeout")}}
    assert not record_failed(ok)
    assert not record_failed(rejected)
    assert record_failed(timed_out)


def test_layer_calls_name_existing_functions():
    import importlib

    for calls in tracer.LAYER_CALLS.values():
        for module_name, qualified in calls:
            target = importlib.import_module(module_name)
            for part in qualified.split("."):
                target = getattr(target, part)
            assert callable(target)


def _run(workload, trace, timeout=240):
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "0.03"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace", [("stepwise-serial", 0),
                                            ("stepwise-serial", 1),
                                            ("service-edits", 0),
                                            ("service-edits", 1)])
def test_smoke_run(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    info, result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    assert info["pythonhashseed"] == "0"
    assert len(info["digest"]) == 1
    if trace:
        assert result["metrics"]["build.calls"]["value"] > 0
    else:
        assert result["metrics"]["wall_s"]["value"] > 0
