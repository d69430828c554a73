"""TEA08x concurrency lint: synthetic findings + the tree stays clean.

The lint earns its keep twice: unit cases prove each check fires on a
minimal synthetic module, and the self-audit proves the shipped
service stack (`repro/service`, `repro/cluster`,
`repro/store/mapping.py`) carries zero findings — the very findings
the lint first surfaced there are fixed and locked in by the
regression tests at the bottom.
"""

import threading

import pytest

from repro.audit import default_code_paths
from repro.audit.concurrency import ConcurrencyAnalysis
from repro.verify import default_engine, verify_python_source

# ---------------------------------------------------------------------
# TEA080: blocking calls reachable from coroutines
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
# TEA081: lock discipline
# ---------------------------------------------------------------------

AWAIT_UNDER_THREAD_LOCK = """
import threading

_jit_lock = threading.Lock()

async def handler(work):
    with _jit_lock:
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

_jit_lock = threading.Lock()

async def handler():
    async with _jit_lock:
        pass
"""

LOCK_ORDER_VIOLATION = """
import threading

_PROCESS_LOCK = threading.Lock()
_jit_lock = threading.Lock()

def handler():
    with _jit_lock:
        with _PROCESS_LOCK:
            pass
"""

LOCK_ORDER_OK = """
import threading

_PROCESS_LOCK = threading.Lock()
_jit_lock = threading.Lock()

def handler():
    with _PROCESS_LOCK:
        with _jit_lock:
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
# TEA082: unguarded module-level caches
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
# rule wiring: the TEA08x rules own their checks and report locations
# ---------------------------------------------------------------------

def test_rules_partition_checks_by_owner():
    report = verify_python_source(BLOCKING_DIRECT, source_name="a.py")
    assert report.rule_ids == ["TEA080"]
    report = verify_python_source(UNGUARDED_CACHE, source_name="b.py")
    assert report.rule_ids == ["TEA082"]
    report = verify_python_source(AWAIT_UNDER_THREAD_LOCK,
                                  source_name="c.py")
    assert report.rule_ids == ["TEA081"]


def test_syntax_error_reported_once_via_tea080():
    report = verify_python_source("def broken(:\n", source_name="bad.py")
    assert report.rule_ids == ["TEA080"]


# ---------------------------------------------------------------------
# the shipped tree must be clean (satellite: self-findings fixed)
# ---------------------------------------------------------------------

def test_service_stack_lint_clean():
    engine = default_engine(strict=True)
    paths = default_code_paths()
    assert len(paths) >= 3  # service/, cluster/, store/mapping.py
    dirty = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        report = verify_python_source(source, source_name=path,
                                      engine=engine)
        if not report.ok(strict=True):
            dirty.append((path, report.rule_ids))
    assert not dirty, dirty


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
