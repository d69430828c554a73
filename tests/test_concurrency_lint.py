"""The concurrency lint (``dev/concurrency_lint.py``): synthetic
findings + the tree stays clean.

The lint earns its keep twice: unit cases prove each check fires on a
minimal synthetic module, and the self-check proves the shipped
service stack (`repro/service`, `repro/store/mapping.py`) carries
zero findings — the very findings
the lint first surfaced there are fixed and locked in by the
regression tests at the bottom.
"""

import os
import threading

import pytest

from dev import concurrency_lint
from dev.concurrency_lint import (
    ConcurrencyAnalysis,
    default_paths,
    lint_file,
    main,
)

# ---------------------------------------------------------------------
# blocking-call: blocking calls reachable from coroutines
# ---------------------------------------------------------------------

BLOCKING_DIRECT = """
import asyncio, time

async def handler():
    time.sleep(1)
"""

BLOCKING_TRANSITIVE = """
import time

def helper():
    time.sleep(1)

async def handler():
    helper()
"""

BLOCKING_STORE = """
async def handler(self):
    return self.store.get_compiled("key")
"""

BLOCKING_SANCTIONED = """
import asyncio, time

def helper():
    time.sleep(1)

async def handler():
    loop = asyncio.get_event_loop()
    await loop.run_in_executor(None, helper)
"""

BLOCKING_PRAGMA = """
import time

async def handler():
    time.sleep(0)  # audit: ok-blocking
"""


def checks(source):
    analysis = ConcurrencyAnalysis(source, "<test>")
    return [(f.check, f.lineno) for f in analysis.all_findings()]


def test_direct_blocking_call_flagged():
    found = checks(BLOCKING_DIRECT)
    assert [c for c, _ in found] == ["blocking-call"]


def test_transitive_blocking_call_flagged():
    found = checks(BLOCKING_TRANSITIVE)
    assert [c for c, _ in found] == ["blocking-call"]


def test_store_receiver_flagged():
    assert [c for c, _ in checks(BLOCKING_STORE)] == ["blocking-call"]


def test_run_in_executor_handoff_is_sanctioned():
    assert checks(BLOCKING_SANCTIONED) == []


def test_pragma_suppresses_reviewed_line():
    assert checks(BLOCKING_PRAGMA) == []


def test_sync_function_not_flagged():
    assert checks("def f():\n    open('x')\n") == []


# ---------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------

AWAIT_UNDER_THREAD_LOCK = """
import threading

_PROCESS_LOCK = threading.Lock()

async def handler(work):
    with _PROCESS_LOCK:
        await work()
"""

ASYNC_LOCK_PLAIN_WITH = """
import asyncio

_replay_memo_lock = asyncio.Lock()

def handler():
    with _replay_memo_lock:
        pass
"""

THREAD_LOCK_ASYNC_WITH = """
import threading

_PROCESS_LOCK = threading.Lock()

async def handler():
    async with _PROCESS_LOCK:
        pass
"""

LOCK_ORDER_VIOLATION = """
import threading

_PROCESS_LOCK = threading.Lock()
_replay_memo_lock = threading.Lock()

def handler():
    with _replay_memo_lock:
        with _PROCESS_LOCK:
            pass
"""

LOCK_ORDER_OK = """
import threading

_PROCESS_LOCK = threading.Lock()
_replay_memo_lock = threading.Lock()

def handler():
    with _PROCESS_LOCK:
        with _replay_memo_lock:
            pass
"""


@pytest.mark.parametrize("source", [
    AWAIT_UNDER_THREAD_LOCK,
    ASYNC_LOCK_PLAIN_WITH,
    THREAD_LOCK_ASYNC_WITH,
    LOCK_ORDER_VIOLATION,
], ids=["await-under-lock", "asyncio-plain-with", "threading-async-with",
        "order-violation"])
def test_lock_discipline_violations(source):
    assert [c for c, _ in checks(source)] == ["lock-discipline"]


def test_lock_order_respected_is_clean():
    assert checks(LOCK_ORDER_OK) == []


# ---------------------------------------------------------------------
# unguarded-cache: module-level caches mutated outside a lock
# ---------------------------------------------------------------------

UNGUARDED_CACHE = """
_RESULT_CACHE = {}

def put(key, value):
    _RESULT_CACHE[key] = value
"""

GUARDED_CACHE = """
import threading

_RESULT_CACHE = {}
_LOCK = threading.Lock()

def put(key, value):
    with _LOCK:
        _RESULT_CACHE[key] = value
"""


def test_unguarded_cache_mutation_flagged():
    assert [c for c, _ in checks(UNGUARDED_CACHE)] == ["unguarded-cache"]


def test_guarded_cache_mutation_clean():
    assert checks(GUARDED_CACHE) == []


# ---------------------------------------------------------------------
# the script: one line per finding, exit 1 on any
# ---------------------------------------------------------------------

def test_rules_partition_checks_by_owner(tmp_path, monkeypatch, capsys):
    paths = []
    for name, source in (("a.py", BLOCKING_DIRECT),
                         ("b.py", UNGUARDED_CACHE),
                         ("c.py", AWAIT_UNDER_THREAD_LOCK)):
        (tmp_path / name).write_text(source)
        paths.append(str(tmp_path / name))
    monkeypatch.setattr(concurrency_lint, "default_paths", lambda: paths)
    assert main() == 1
    lines = capsys.readouterr().out.splitlines()
    checks = [line.split("[", 1)[1].split("]", 1)[0]
              for line in lines if "[" in line]
    assert checks == ["blocking-call", "unguarded-cache",
                      "lock-discipline"]
    assert lines[-1] == "concurrency lint: 3 file(s), 3 finding(s)"


def test_syntax_error_reported_once_via_tea080(tmp_path, monkeypatch):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert [finding.check for finding in lint_file(str(bad))] == ["syntax"]
    monkeypatch.setattr(concurrency_lint, "default_paths",
                        lambda: [str(bad)])
    assert main() == 1


# ---------------------------------------------------------------------
# the shipped tree must be clean
# ---------------------------------------------------------------------

def test_service_stack_lint_clean(capsys):
    paths = default_paths()
    names = {os.path.basename(path) for path in paths}
    assert {"server.py", "mapping.py"} <= names
    dirty = [(path, lint_file(path)) for path in paths if lint_file(path)]
    assert not dirty, dirty
    assert main() == 0


# ---------------------------------------------------------------------
# regression: the fixes the lint forced stay correct under load
# ---------------------------------------------------------------------

def test_cached_mapping_concurrent_opens_gate_once(tmp_path):
    from repro.core import build_tea
    from repro.store import dump_tea_binary
    from repro.store.mapping import cached_mapping, clear_mapping_cache

    from .conftest import NESTED_DIAMOND_SOURCE, record_traces
    from repro.isa import assemble

    program = assemble(NESTED_DIAMOND_SOURCE)
    trace_set = record_traces(program).trace_set
    data = dump_tea_binary(trace_set, tea=build_tea(trace_set))
    path = tmp_path / "snap.teab"
    path.write_bytes(data)

    clear_mapping_cache()
    gate_calls = []
    gate_lock = threading.Lock()

    def gate(mapping):
        with gate_lock:
            gate_calls.append(mapping)

    barrier = threading.Barrier(8)
    results = []
    results_lock = threading.Lock()

    def worker():
        barrier.wait()
        mapping = cached_mapping(str(path), gate=gate)
        with results_lock:
            results.append(mapping)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    try:
        # One mapping instance shared by all callers, gated exactly once.
        assert len(results) == 8
        assert len(set(map(id, results))) == 1
        assert len(gate_calls) == 1
    finally:
        clear_mapping_cache()


def test_cached_mapping_failed_gate_not_cached(tmp_path):
    from repro.core import build_tea
    from repro.store import dump_tea_binary
    from repro.store.mapping import cached_mapping, clear_mapping_cache

    from .conftest import NESTED_DIAMOND_SOURCE, record_traces
    from repro.isa import assemble

    program = assemble(NESTED_DIAMOND_SOURCE)
    trace_set = record_traces(program).trace_set
    path = tmp_path / "snap.teab"
    path.write_bytes(dump_tea_binary(trace_set,
                                        tea=build_tea(trace_set)))
    clear_mapping_cache()
    calls = []

    def failing_gate(mapping):
        calls.append(mapping)
        raise ValueError("rejected")

    with pytest.raises(ValueError):
        cached_mapping(str(path), gate=failing_gate)
    # The failed open was not cached: the next call gates again.
    mapping = cached_mapping(str(path), gate=calls.append)
    try:
        assert len(calls) == 2
        assert mapping.compiled().n_states > 0
    finally:
        clear_mapping_cache()
