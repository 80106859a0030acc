"""The steal backends' work-item encoder ships callee declarations only.

A work item needs its own function versions and, of every callee, only
what the validator reads: the name and the ``readonly``/``readnone``
attributes.  :func:`~repro.validator.scheduler.steal.encode_item` (used
by the pipe pool and the TCP transport alike) must therefore decode to
items whose non-version functions are bodiless declarations, whose
self-recursive calls still reach the version object, and whose verdicts
equal the original item's.
"""

import pickle
import socket
from dataclasses import replace

import pytest

from repro.ir import parse_module
from repro.ir.instructions import Call
from repro.ir.module import Function
from repro.transforms import PAPER_PIPELINE
from repro.validator import build_plan
from repro.validator.config import DEFAULT_CONFIG
from repro.validator.scheduler.executors import _validate_item
from repro.validator.scheduler.steal import encode_item
from repro.validator.scheduler.transport import (
    TRANSPORT_SCHEMA,
    TcpStealPool,
    config_fingerprint,
    recv_frame,
    send_frame,
)

CALLERS = """
declare i32 @ext(i32) readonly

define i32 @helper(i32 %x) readnone {
entry:
  %y = add i32 %x, 1
  ret i32 %y
}

define i32 @f(i32 %a, i32 %n) {
entry:
  %p = alloca i32
  store i32 %a, i32* %p
  %v = load i32, i32* %p
  %c = icmp slt i32 %v, %n
  br i1 %c, label %rec, label %done
rec:
  %h = call i32 @helper(i32 %v)
  %e = call i32 @ext(i32 %h)
  %d = add i32 %e, 0
  %r = call i32 @f(i32 %d, i32 %n)
  ret i32 %r
done:
  %z = mul i32 %v, 1
  ret i32 %z
}
"""

CONFIG = replace(DEFAULT_CONFIG, concurrency=2)


@pytest.fixture(scope="module")
def versions():
    """The checkpoint versions of ``@f`` (the original first)."""
    module = parse_module(CALLERS, name="callers")
    plan = build_plan([module], PAPER_PIPELINE, config=CONFIG,
                      strategy="stepwise")
    function_plan, = [fp for fp in plan.function_plans()
                      if fp.versions[0].name == "f"]
    assert len(function_plan.versions) >= 3, "expected a multi-pass chain"
    return function_plan.versions


def chain_item(versions):
    return ("chain", list(versions), CONFIG)


def pair_item(versions):
    return ("pair", versions[0], versions[-1], CONFIG)


def callees(function):
    return [inst.callee for inst in function.instructions()
            if isinstance(inst, Call)]


def decoded_versions(item):
    return item[1] if item[0] == "chain" else list(item[1:3])


def verdicts(item_result):
    """The deterministic surface of a :func:`_validate_item` result."""
    def surface(result):
        if result is None:
            return None
        return (result.function_name, result.is_success, result.reason,
                result.stats.get("rule_invocations"))
    if isinstance(item_result, tuple):
        settled, whole, _stats = item_result
        return [surface(result) for result in settled], surface(whole)
    return surface(item_result)


def assert_declarations_only(original, decoded):
    """Every non-version callee decodes as a bodiless declaration."""
    mine = decoded_versions(decoded)
    module = decoded_versions(original)[0].parent
    seen = set()
    for version in mine:
        assert version.blocks, "item versions keep their bodies"
        for callee in callees(version):
            if any(callee is other for other in mine):
                continue
            seen.add(callee.name)
            assert isinstance(callee, Function)
            assert callee.is_declaration, f"@{callee.name} shipped a body"
            source = module.functions[callee.name]
            assert callee.function_type == source.function_type
            assert callee.attributes == source.attributes
            assert [arg.name for arg in callee.args] == \
                [arg.name for arg in source.args]
    assert {"helper", "ext"} <= seen


@pytest.mark.parametrize("make_item", [chain_item, pair_item],
                         ids=["chain", "pair"])
def test_callees_decode_as_declarations(versions, make_item):
    item = make_item(versions)
    tag, decoded = pickle.loads(encode_item(5, item))
    assert tag == 5
    assert_declarations_only(item, decoded)
    helper = next(callee for version in decoded_versions(decoded)
                  for callee in callees(version) if callee.name == "helper")
    assert helper.attributes == frozenset({"readnone"})


@pytest.mark.parametrize("make_item", [chain_item, pair_item],
                         ids=["chain", "pair"])
def test_self_recursion_resolves_to_the_version(versions, make_item):
    _, decoded = pickle.loads(encode_item(0, make_item(versions)))
    original = decoded_versions(decoded)[0]
    assert original.name == "f"
    recursive = [callee for callee in callees(original)
                 if callee.name == "f"]
    assert recursive and all(callee is original for callee in recursive)


@pytest.mark.parametrize("make_item", [chain_item, pair_item],
                         ids=["chain", "pair"])
def test_decoded_item_verdicts_match(versions, make_item):
    item = make_item(versions)
    _, decoded = pickle.loads(encode_item(0, item))
    assert verdicts(_validate_item(decoded)) == verdicts(_validate_item(item))


def test_declarations_shrink_the_payload(versions):
    item = chain_item(versions)
    assert len(encode_item(0, item)) < len(pickle.dumps((0, item)))


def test_tcp_transport_ships_the_same_encoding(versions):
    item = chain_item(versions)
    pool = TcpStealPool(1, None, listen="127.0.0.1:0", connect_grace=5.0)
    try:
        sent = pool.send(0, tag=9, item=item)
        sock = socket.create_connection(pool.address, timeout=5.0)
        try:
            sock.settimeout(5.0)
            send_frame(sock, ("hello", TRANSPORT_SCHEMA,
                              config_fingerprint(), "worker"))
            assert recv_frame(sock)[0] == "welcome"
            send_frame(sock, ("ready",))
            kind, tag, payload = recv_frame(sock)
        finally:
            sock.close()
    finally:
        pool.close()
    assert (kind, tag) == ("item", 9)
    assert sent == len(payload) == len(encode_item(9, item))
    _, decoded = pickle.loads(payload)
    assert_declarations_only(item, decoded)
    assert verdicts(_validate_item(decoded)) == verdicts(_validate_item(item))
