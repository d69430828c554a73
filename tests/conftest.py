"""Shared fixtures: small programs and recorded trace sets."""

import glob
import os
from pathlib import Path

import pytest

from repro.cfg.basic_block import BlockIndex
from repro.cpu import ExecutionStream
from repro.dbt import StarDBT
from repro.isa import assemble
from repro.traces.recorder import RecorderLimits

#: A two-level loop with a data-dependent diamond in the inner body:
#: small enough to run instantly, rich enough to produce multiple traces.
NESTED_DIAMOND_SOURCE = """
main:
    mov ecx, 200
    mov eax, 0
outer:
    mov ebx, 8
inner:
    add eax, 1
    test eax, 3
    jnz skip
    add eax, 5
skip:
    dec ebx
    jnz inner
    dec ecx
    jnz outer
    hlt
"""

#: Straight counted loop (single hot trace).
SIMPLE_LOOP_SOURCE = """
main:
    mov ecx, 400
    mov eax, 0
loop:
    add eax, 2
    dec ecx
    jnz loop
    hlt
"""

#: Loop calling a helper function.
CALL_LOOP_SOURCE = """
main:
    mov ecx, 300
loop:
    push ecx
    call helper
    pop ecx
    dec ecx
    jnz loop
    hlt
helper:
    add eax, 7
    xor eax, 3
    ret
"""


#: The golden TEAB snapshot (181.mcf at scale 0.4, MRET, with meta, no
#: profile), pinned byte for byte by ``tests/test_store_v2.py``.
GOLDEN_SNAPSHOT = Path(__file__).parent / "golden" / "mcf_mret.teab"
GOLDEN_SNAPSHOT_BENCHMARK = ("181.mcf", 0.4)


@pytest.fixture(scope="session")
def golden_snapshot():
    return GOLDEN_SNAPSHOT.read_bytes()


@pytest.fixture(scope="session")
def golden_snapshot_program():
    from repro.workloads import load_benchmark

    name, scale = GOLDEN_SNAPSHOT_BENCHMARK
    return load_benchmark(name, scale=scale).program


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate tests/golden/*.json from the current code "
             "instead of comparing against it (see tests/test_golden_tables.py)",
    )


@pytest.fixture
def nested_program():
    return assemble(NESTED_DIAMOND_SOURCE)


@pytest.fixture
def simple_loop_program():
    return assemble(SIMPLE_LOOP_SOURCE)


@pytest.fixture
def call_loop_program():
    return assemble(CALL_LOOP_SOURCE)


@pytest.fixture
def recorder_limits():
    return RecorderLimits(hot_threshold=10)


def record_traces(program, strategy="mret", hot_threshold=10, **limit_kwargs):
    """Run the DBT over ``program`` and return its trace set."""
    limits = RecorderLimits(hot_threshold=hot_threshold, **limit_kwargs)
    return StarDBT(program, strategy=strategy, limits=limits).run()


def store_files(root):
    """Every snapshot, program image and stream sidecar of a store, as
    ``repro tools verify STORE/*/*.teab STORE/*/*.teap STORE/*/*.teas``
    names them."""
    return [path for suffix in (".teab", ".teap", ".teas")
            for path in sorted(glob.glob(os.path.join(str(root), "*",
                                                      "*" + suffix)))]


def recorded_transitions(program):
    """The StarDBT-flavour block transitions of one recorded run of
    ``program``, as objects (for oracles that step them one by one)."""
    return list(ExecutionStream.record(program).block_transitions(
        BlockIndex(program), program.entry))


@pytest.fixture
def nested_traces(nested_program):
    return record_traces(nested_program).trace_set


@pytest.fixture
def block_index(nested_program):
    return BlockIndex(nested_program)
