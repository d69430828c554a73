"""Pipeline fuzzing: random programs through every engine.

Hypothesis generates random (but halting) programs from the kernel
library with randomized parameters and seeds; every recorder, the TEA
builder, the replayer and the differential checker must hold their
invariants on all of them.  This is the broad-spectrum net under the
hand-written behavioural tests.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.differential import check_equivalence
from repro.core import MemoryModel
from repro.dbt import StarDBT
from repro.isa import LabelRef
from repro.isa.assembler import assemble_records
from repro.pin import Pin, TeaReplayTool
from repro.traces.recorder import RecorderLimits
from repro.workloads.kernels import KERNEL_KINDS

_KINDS = sorted(KERNEL_KINDS)


@st.composite
def random_programs(draw):
    """A ``main`` calling 1-3 random kernels with random parameters."""
    n_kernels = draw(st.integers(min_value=1, max_value=3))
    rng_seed = draw(st.integers(min_value=0, max_value=2 ** 20))
    rng = random.Random(rng_seed)
    code = []
    data = []
    calls = []
    for index in range(n_kernels):
        kind = draw(st.sampled_from(_KINDS))
        prefix = "k%d" % index
        params = {}
        if kind in ("branchy_loop", "switch_loop", "call_loop"):
            params["iters"] = draw(st.integers(min_value=2, max_value=120))
        if kind == "branchy_loop":
            params["diamonds"] = draw(st.integers(min_value=0, max_value=4))
        if kind == "branchy_nest":
            params["outer_iters"] = draw(st.integers(min_value=2, max_value=40))
            params["inner_iters"] = draw(st.integers(min_value=2, max_value=6))
        if kind in ("counted_nest", "fp_nest"):
            params["outer_iters"] = draw(st.integers(min_value=2, max_value=12))
            params["inner_iters"] = draw(st.integers(min_value=2, max_value=15))
        if kind == "switch_loop":
            params["cases"] = draw(st.integers(min_value=2, max_value=8))
        if kind == "rep_copy_loop":
            params["iters"] = draw(st.integers(min_value=1, max_value=10))
            params["words"] = draw(st.integers(min_value=1, max_value=30))
        kernel = KERNEL_KINDS[kind](prefix, rng, **params)
        code += kernel.code
        data += kernel.data
        calls.append((None, "call", (LabelRef(kernel.entry_label),)))
    main = [("main", None, None)] + calls + [(None, "hlt", ())]
    return assemble_records(main + code, data)


@given(random_programs(),
       st.sampled_from(["mret", "mfet", "tt", "ctt"]),
       st.integers(min_value=2, max_value=40))
@settings(max_examples=40, deadline=None)
def test_recording_invariants(program, strategy, threshold):
    result = StarDBT(
        program, strategy=strategy,
        limits=RecorderLimits(hot_threshold=threshold),
        max_instructions=2_000_000,
    ).run()
    trace_set = result.trace_set
    assert trace_set.validate() == []
    assert 0.0 <= result.coverage <= 1.0
    # Unique entries, edges label-consistent (validate checks the rest).
    entries = [trace.entry for trace in trace_set]
    assert len(entries) == len(set(entries))
    # The memory model must always favour TEA per trace.
    model = MemoryModel()
    for trace in trace_set:
        assert model.tea_trace_bytes(trace) < model.dbt_trace_bytes(trace)


@given(random_programs(), st.integers(min_value=2, max_value=40))
@settings(max_examples=30, deadline=None)
def test_replay_invariants(program, threshold):
    result = StarDBT(
        program, limits=RecorderLimits(hot_threshold=threshold),
        max_instructions=2_000_000,
    ).run()
    tool = TeaReplayTool(trace_set=result.trace_set)
    pin_result = Pin(program, tool=tool, max_instructions=2_000_000).run()
    stats = tool.stats
    assert stats.total_dbt == pin_result.instrs_dbt
    assert stats.total_pin == pin_result.instrs_pin
    assert 0 <= stats.covered_pin <= stats.total_pin
    assert stats.trace_enters == stats.cache_hits + stats.directory_hits
    assert stats.blocks == (
        stats.in_trace_hits + stats.trace_exits + stats.nte_probes + 1
    )


@given(random_programs(),
       st.sampled_from(["mret", "tt", "ctt"]),
       st.integers(min_value=2, max_value=30))
@settings(max_examples=25, deadline=None)
def test_differential_equivalence_fuzz(program, strategy, threshold):
    """The big one: for any program and strategy, the TEA must track the
    reference trace cursor exactly (Properties 1+2, dynamically)."""
    result = StarDBT(
        program, strategy=strategy,
        limits=RecorderLimits(hot_threshold=threshold),
        max_instructions=2_000_000,
    ).run()
    checker = check_equivalence(program, result.trace_set,
                                max_instructions=2_000_000)
    assert checker.is_equivalent, checker.divergences[:3]


@given(random_programs(), st.integers(min_value=2, max_value=30))
@settings(max_examples=20, deadline=None)
def test_online_equals_offline_fuzz(program, threshold):
    """Online (Algorithm 2 under MiniPin) and offline (DBT then Algorithm
    1) recording must produce identical trace sets for any program."""
    from repro.pin import TeaRecordTool
    dbt_set = StarDBT(
        program, limits=RecorderLimits(hot_threshold=threshold),
        max_instructions=2_000_000,
    ).run().trace_set
    tool = TeaRecordTool(strategy="mret",
                         limits=RecorderLimits(hot_threshold=threshold))
    Pin(program, tool=tool, max_instructions=2_000_000).run()
    assert {t.entry for t in tool.trace_set} == {t.entry for t in dbt_set}
    for trace in tool.trace_set:
        twin = dbt_set.trace_at(trace.entry)
        assert [tbb.block.key for tbb in trace] == [
            tbb.block.key for tbb in twin
        ]
