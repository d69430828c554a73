"""Memory model (Table 1 accounting) and profile counter tests."""

import pytest

from repro.core import MemoryModel, TeaProfile, build_tea
from repro.core.profile import TeaProfile as Profile
from tests.conftest import record_traces


# ---------------------------------------------------------------------
# memory model
# ---------------------------------------------------------------------

def test_dbt_bytes_scale_with_code(nested_traces):
    model = MemoryModel()
    for trace in nested_traces:
        dbt = model.dbt_trace_bytes(trace)
        assert dbt > trace.code_bytes  # expansion + stubs can only add


def test_tea_bytes_scale_with_states(nested_traces):
    model = MemoryModel()
    for trace in nested_traces:
        tea = model.tea_trace_bytes(trace)
        floor = len(trace) * model.state_bytes
        assert tea >= floor


def test_savings_in_paper_band(nested_traces):
    model = MemoryModel()
    savings = model.savings(nested_traces)
    assert 0.5 < savings < 0.95


def test_savings_empty_set_is_zero():
    from repro.traces.model import TraceSet
    model = MemoryModel()
    assert model.savings(TraceSet()) == 0.0
    dbt_kb, tea_kb, savings = model.table1_row(TraceSet())
    assert dbt_kb == 0.0 and savings == 0.0


def test_table1_row_units(nested_traces):
    model = MemoryModel()
    dbt_kb, tea_kb, savings = model.table1_row(nested_traces)
    assert dbt_kb * 1024 == pytest.approx(model.dbt_total_bytes(nested_traces))
    assert tea_kb * 1024 == pytest.approx(model.tea_total_bytes(nested_traces))
    assert savings == pytest.approx(1 - tea_kb / dbt_kb)


def test_tea_bytes_for_automaton_matches_trace_accounting(nested_traces):
    model = MemoryModel()
    tea = build_tea(nested_traces)
    assert model.tea_bytes_for_automaton(tea) == pytest.approx(
        model.tea_total_bytes(nested_traces)
    )


def test_custom_constants_flow_through(nested_traces):
    cheap = MemoryModel(translation_expansion=1.0, exit_stub_bytes=0,
                        entry_stub_bytes=0, trace_descriptor_bytes=0,
                        link_record_bytes=0, alignment_bytes=0)
    assert cheap.dbt_total_bytes(nested_traces) == pytest.approx(
        nested_traces.code_bytes
    )


def test_expansion_raises_dbt_side(nested_traces):
    low = MemoryModel(translation_expansion=2.0)
    high = MemoryModel(translation_expansion=4.0)
    assert high.savings(nested_traces) > low.savings(nested_traces)


# ---------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------

class _FakeState:
    def __init__(self, sid, trace_id=None, index=0):
        self.sid = sid
        self.tbb = None if trace_id is None else _FakeTBB(trace_id, index)

    @property
    def trace_id(self):
        return None if self.tbb is None else self.tbb.trace_id


class _FakeTBB:
    def __init__(self, trace_id, index):
        self.trace_id = trace_id
        self.index = index


def test_profile_counts_blocks():
    profile = Profile()
    state = _FakeState(1, trace_id=1, index=0)
    profile.record_block(state, 4)
    profile.record_block(state, 4)
    assert profile.state_counts[1] == 2
    assert profile.state_instructions[1] == 8
    assert profile.trace_head_executions[1] == 2


def test_profile_edges_and_trace_boundaries():
    profile = Profile()
    nte = _FakeState(0)
    head = _FakeState(1, trace_id=1)
    other = _FakeState(2, trace_id=2)
    profile.record_edge(nte, head)    # enter trace 1
    profile.record_edge(head, other)  # trace 1 -> trace 2
    profile.record_edge(other, nte)   # exit trace 2
    assert profile.trace_enters == {1: 1, 2: 1}
    assert profile.trace_exits == {1: 1, 2: 1}
    assert profile.edge_counts[(0, 1)] == 1


def test_exit_ratio_semantics():
    profile = Profile()
    head = _FakeState(1, trace_id=1, index=0)
    nte = _FakeState(0)
    for _ in range(10):
        profile.record_block(head, 5)
    profile.record_edge(head, nte)
    assert profile.exit_ratio(1) == pytest.approx(0.1)
    assert profile.exit_ratio(99) == 0.0


def test_exit_ratio_unexecuted_trace_with_exits():
    profile = Profile()
    profile.trace_exits[7] = 3
    assert profile.exit_ratio(7) == 1.0


def test_hottest_states_ranking():
    profile = Profile()
    for sid, count in ((1, 5), (2, 50), (3, 20)):
        profile.state_counts[sid] = count
    assert profile.hottest_states(2) == [(2, 50), (3, 20)]


def test_profile_merge():
    first = Profile()
    second = Profile()
    first.state_counts[1] = 3
    second.state_counts[1] = 4
    second.state_counts[2] = 1
    second.edge_counts[(0, 1)] = 9
    first.merge(second)
    assert first.state_counts == {1: 7, 2: 1}
    assert first.edge_counts[(0, 1)] == 9


def test_profile_distinguishes_duplicate_blocks(nested_program):
    """Section 2's point: separate counters per TBB instance of one BB."""
    from repro.core import ReplayConfig
    from repro.pin import Pin, TeaReplayTool
    trace_set = record_traces(nested_program).trace_set
    # Find a block appearing in two traces.
    seen = {}
    shared = None
    for trace in trace_set:
        for tbb in trace:
            if tbb.block.key in seen and seen[tbb.block.key] != trace.trace_id:
                shared = tbb.block.key
            seen.setdefault(tbb.block.key, trace.trace_id)
    if shared is None:
        pytest.skip("workload produced no duplicated block")
    profile = TeaProfile()
    tool = TeaReplayTool(trace_set=trace_set,
                         config=ReplayConfig.global_local(), profile=profile)
    Pin(nested_program, tool=tool).run()
    tea = tool.tea
    holders = [
        state.sid for state in tea.states[1:]
        if state.tbb.block.key == shared
    ]
    counts = [profile.state_counts.get(sid, 0) for sid in holders]
    assert len(holders) >= 2
    assert any(counts), "shared block must have executed somewhere"
