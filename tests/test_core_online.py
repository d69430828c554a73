"""Algorithm 2 online recording tests (the Table 3 machinery)."""

from repro.core import OnlineTeaRecorder, ReplayConfig, build_tea
from repro.pin import Pin, TeaRecordTool
from repro.traces import MRETRecorder
from repro.traces.recorder import RecorderLimits
from tests.conftest import record_traces


def record_online(program, hot_threshold=10, strategy="mret"):
    tool = TeaRecordTool(
        strategy=strategy, limits=RecorderLimits(hot_threshold=hot_threshold)
    )
    result = Pin(program, tool=tool).run()
    return result, tool


def test_online_produces_same_traces_as_dbt(nested_program):
    """The online recorder must find the same MRET traces StarDBT finds:
    both see the identical block-transition stream (the Section 4.1
    instrumentation trick guarantees it)."""
    dbt_set = record_traces(nested_program).trace_set
    _, tool = record_online(nested_program)
    online_set = tool.trace_set
    assert {t.entry for t in online_set} == {t.entry for t in dbt_set}
    for trace in online_set:
        twin = dbt_set.trace_at(trace.entry)
        assert [tbb.block.key for tbb in trace] == [
            tbb.block.key for tbb in twin
        ]
        assert [tbb.successors for tbb in trace] == [
            tbb.successors for tbb in twin
        ]


def test_online_tea_grows_with_traces(nested_program):
    _, tool = record_online(nested_program)
    assert tool.tea.n_states == 1 + tool.trace_set.n_tbbs
    assert set(tool.tea.heads) == set(tool.trace_set.by_entry)


def test_online_tea_matches_offline_build(nested_program):
    _, tool = record_online(nested_program)
    offline = build_tea(tool.trace_set)
    assert offline.n_states == tool.tea.n_states
    assert offline.n_transitions == tool.tea.n_transitions


def test_online_coverage_after_creation(simple_loop_program):
    _, tool = record_online(simple_loop_program)
    # Coverage accrues only after the trace exists: with threshold 10 and
    # 400 iterations, most of the run is covered but not all.
    assert 0.8 < tool.coverage < 1.0


def test_online_coverage_scales_with_threshold(simple_loop_program):
    _, eager = record_online(simple_loop_program, hot_threshold=5)
    _, lazy = record_online(simple_loop_program, hot_threshold=200)
    assert eager.coverage > lazy.coverage


def test_online_recording_charges_cost(simple_loop_program):
    result, _ = record_online(simple_loop_program)
    assert "recording" in result.cost.breakdown
    assert result.cost.breakdown["recording"] > 0


def test_online_recorder_direct_api(simple_loop_program):
    """Drive OnlineTeaRecorder without the pintool wrapper, over packed
    batches cut from a recorded stream's lanes."""
    from repro.cfg.basic_block import BlockIndex
    from repro.core import PackedBatch
    from repro.cpu import ExecutionStream

    recorder = MRETRecorder(limits=RecorderLimits(hot_threshold=10))
    online = OnlineTeaRecorder(recorder, config=ReplayConfig.global_local())
    index = BlockIndex(simple_loop_program)
    stream = ExecutionStream.record(simple_loop_program)
    rows = stream.n_transitions
    start = simple_loop_program.entry
    for lo in range(0, rows, 100):
        hi = min(lo + 100, rows)
        online.observe(PackedBatch(stream.transitions[3 * lo:3 * hi],
                                   flags=stream.flags[lo:hi], start=start),
                       index.block_from)
        start = stream.transitions[3 * hi - 3]
    traces = online.finish()
    assert len(traces) >= 1
    assert online.tea.n_traces == len(traces)
    assert online.stats.covered_dbt > 0


def test_online_tree_strategy_final_sync(nested_program):
    """Tree strategies mutate committed traces; finish() re-syncs."""
    _, tool = record_online(nested_program, strategy="tt")
    offline = build_tea(tool.trace_set)
    assert tool.tea.n_states == offline.n_states
    assert tool.tea.n_transitions == offline.n_transitions
