"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.bench.corpus import small_test_corpus
from repro.ir import parse_function, parse_module


@pytest.fixture
def parse():
    """Parse a module from source text."""
    return parse_module


@pytest.fixture
def parse_one():
    """Parse a single function from source text."""
    return parse_function


@pytest.fixture
def assembly_calls(monkeypatch):
    """``(module, shared)`` of every result module assembled in the test.

    Wraps ``assemble_result_module`` wherever a driver binds it, so a
    test can check that a returned module is the one the single assembly
    function built.
    """
    import importlib

    settle = importlib.import_module("repro.validator.scheduler.settle")
    original = settle.assemble_result_module
    built = []

    def spy(module, kept, shared=False):
        result = original(module, kept, shared)
        built.append((result, shared))
        return result

    for owner in ("repro.validator.driver", "repro.validator.watch"):
        monkeypatch.setattr(importlib.import_module(owner),
                            "assemble_result_module", spy)
    return built


@pytest.fixture(scope="session")
def mini_corpus():
    """A small generated corpus shared by integration tests (read-only!)."""
    return small_test_corpus(functions=6, seed=11)


LOOP_FUNCTION = """
define i32 @loopy(i32 %a, i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %inext, %body ]
  %acc = phi i32 [ 0, %entry ], [ %accnext, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %t = mul i32 %a, 2
  %accnext = add i32 %acc, %t
  %inext = add i32 %i, 1
  br label %loop
exit:
  ret i32 %acc
}
"""

DIAMOND_FUNCTION = """
define i32 @diamond(i32 %a, i32 %b) {
entry:
  %c = icmp slt i32 %a, %b
  br i1 %c, label %then, label %else
then:
  %x = add i32 %a, 1
  br label %join
else:
  %y = mul i32 %b, 2
  br label %join
join:
  %r = phi i32 [ %x, %then ], [ %y, %else ]
  ret i32 %r
}
"""

MEMORY_FUNCTION = """
define i32 @memops(i32 %a, i32 %b) {
entry:
  %p = alloca i32
  %q = alloca i32
  store i32 %a, i32* %p
  store i32 %b, i32* %q
  %x = load i32, i32* %p
  %y = load i32, i32* %q
  %r = add i32 %x, %y
  ret i32 %r
}
"""


@pytest.fixture
def loop_source():
    return LOOP_FUNCTION


@pytest.fixture
def diamond_source():
    return DIAMOND_FUNCTION


@pytest.fixture
def memory_source():
    return MEMORY_FUNCTION
