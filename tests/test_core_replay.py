"""TEA replayer tests: transition function, coverage, cost, configs."""

import pytest

from repro.cfg.basic_block import BlockIndex
from repro.core import ReplayConfig, TeaProfile, TeaReplayer, build_tea
from repro.core.directory import BPlusTreeDirectory, LinkedListDirectory
from repro.cpu.stream import ExecutionStream
from repro.pin import Pin, TeaReplayTool, run_native
from tests.conftest import record_traces


def replay(program, trace_set, config=None, profile=None):
    tool = TeaReplayTool(trace_set=trace_set,
                         config=config or ReplayConfig.global_local(),
                         profile=profile)
    result = Pin(program, tool=tool).run()
    return result, tool


# ---------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------

def test_config_factories():
    assert ReplayConfig.global_local().describe() == "Global / Local"
    assert ReplayConfig.global_no_local().describe() == "Global / No Local"
    assert ReplayConfig.no_global_local().describe() == "No Global / Local"
    assert ReplayConfig.no_global_no_local().describe() == "No Global / No Local"


def test_config_validation():
    with pytest.raises(ValueError):
        ReplayConfig(global_index="btree-of-doom")
    with pytest.raises(ValueError):
        ReplayConfig(cache_kind="victim")


def test_future_work_directories(nested_program):
    """The paper's future work: alternative lookup structures must give
    identical behaviour (coverage/enters), differing only in cost."""
    trace_set = record_traces(nested_program).trace_set
    results = {}
    for kind in ("bptree", "list", "hash", "sorted"):
        config = ReplayConfig(global_index=kind, local_cache=True)
        result, tool = replay(nested_program, trace_set, config)
        results[kind] = (tool.coverage, tool.stats.trace_enters, result.cycles)
    coverages = {round(v[0], 9) for v in results.values()}
    enters = {v[1] for v in results.values()}
    assert len(coverages) == 1
    assert len(enters) == 1


def test_directory_choice_follows_config(nested_traces):
    tea = build_tea(nested_traces)
    bp = TeaReplayer(tea, config=ReplayConfig.global_local())
    ll = TeaReplayer(tea, config=ReplayConfig.no_global_local())
    assert isinstance(bp.directory, BPlusTreeDirectory)
    assert isinstance(ll.directory, LinkedListDirectory)
    assert len(bp.directory) == len(nested_traces)


# ---------------------------------------------------------------------
# coverage semantics
# ---------------------------------------------------------------------

def test_replay_coverage_full_on_simple_loop(simple_loop_program):
    trace_set = record_traces(simple_loop_program).trace_set
    _, tool = replay(simple_loop_program, trace_set)
    # Replaying pre-recorded traces: only main's prologue is cold.
    assert tool.coverage > 0.98


def test_replay_empty_trace_set_zero_coverage(simple_loop_program):
    _, tool = replay(simple_loop_program, None)
    assert tool.coverage == 0.0
    assert tool.stats.in_trace_hits == 0
    # Every block but the final (flush) one probes from NTE.
    assert tool.stats.nte_probes == tool.stats.blocks - 1


def test_coverage_counts_both_semantics(nested_program):
    trace_set = record_traces(nested_program).trace_set
    _, tool = replay(nested_program, trace_set)
    stats = tool.stats
    assert stats.total_pin == stats.total_dbt  # no REP in this program
    assert 0 < stats.covered_pin <= stats.total_pin
    assert stats.coverage(True) == stats.covered_pin / stats.total_pin
    assert stats.coverage(False) == stats.covered_dbt / stats.total_dbt


def test_stats_balance(nested_program):
    trace_set = record_traces(nested_program).trace_set
    _, tool = replay(nested_program, trace_set)
    stats = tool.stats
    # Every block is classified exactly once.
    assert stats.blocks == (
        stats.in_trace_hits + stats.trace_exits + stats.nte_probes
    ) + 1  # the final flush block takes no transition
    # Every trace entry came from the cache or the directory.
    assert stats.trace_enters == stats.cache_hits + stats.directory_hits


# ---------------------------------------------------------------------
# transition-function behaviour
# ---------------------------------------------------------------------

def test_in_trace_transitions_dominate_hot_loop(simple_loop_program):
    trace_set = record_traces(simple_loop_program).trace_set
    _, tool = replay(simple_loop_program, trace_set)
    assert tool.stats.in_trace_hits > 0.9 * tool.stats.blocks


def test_local_cache_catches_trace_to_trace(nested_program):
    trace_set = record_traces(nested_program).trace_set
    _, with_cache = replay(nested_program, trace_set,
                           ReplayConfig.global_local())
    _, without_cache = replay(nested_program, trace_set,
                              ReplayConfig.global_no_local())
    assert with_cache.stats.cache_hits > 0
    assert without_cache.stats.cache_hits == 0
    # Same trace walk either way.
    assert with_cache.stats.in_trace_hits == without_cache.stats.in_trace_hits
    assert with_cache.stats.trace_enters == without_cache.stats.trace_enters


def test_cache_reduces_directory_probes(nested_program):
    trace_set = record_traces(nested_program).trace_set
    _, with_cache = replay(nested_program, trace_set,
                           ReplayConfig.global_local())
    _, without_cache = replay(nested_program, trace_set,
                              ReplayConfig.global_no_local())
    assert with_cache.stats.directory_hits < without_cache.stats.directory_hits


def test_configs_agree_on_coverage(nested_program):
    trace_set = record_traces(nested_program).trace_set
    coverages = set()
    for config in (ReplayConfig.global_local(), ReplayConfig.global_no_local(),
                   ReplayConfig.no_global_local(),
                   ReplayConfig.no_global_no_local()):
        _, tool = replay(nested_program, trace_set, config)
        coverages.add(round(tool.coverage, 9))
    assert len(coverages) == 1  # data structures change cost, not behaviour


def test_costs_differ_across_configs(nested_program):
    trace_set = record_traces(nested_program).trace_set
    cycles = {}
    for name, config in [
        ("gl", ReplayConfig.global_local()),
        ("gnl", ReplayConfig.global_no_local()),
    ]:
        result, _ = replay(nested_program, trace_set, config)
        cycles[name] = result.cycles
    assert cycles["gl"] < cycles["gnl"]


def test_empty_slower_than_loaded(simple_loop_program):
    trace_set = record_traces(simple_loop_program).trace_set
    empty_result, _ = replay(simple_loop_program, None)
    loaded_result, _ = replay(simple_loop_program, trace_set)
    # The paper's counter-intuitive Table 4 result.
    assert empty_result.cycles > loaded_result.cycles


def test_replay_slower_than_native(nested_program):
    trace_set = record_traces(nested_program).trace_set
    native = run_native(nested_program)
    result, _ = replay(nested_program, trace_set)
    assert result.cycles > 3 * native.cycles


def test_lru_cache_kind(nested_program):
    trace_set = record_traces(nested_program).trace_set
    config = ReplayConfig(global_index="bptree", local_cache=True,
                          cache_kind="lru", cache_size=4)
    _, tool = replay(nested_program, trace_set, config)
    assert tool.stats.cache_hits > 0


def test_reset_returns_to_nte(nested_traces):
    tea = build_tea(nested_traces)
    replayer = TeaReplayer(tea)
    replayer.state = next(iter(tea.heads.values()))
    replayer.reset()
    assert replayer.state is tea.nte


def test_register_trace_extends_directory(nested_traces):
    tea = build_tea(nested_traces)
    replayer = TeaReplayer(tea)
    before = len(replayer.directory)
    replayer.register_trace(0xABCDEF, tea.nte)
    assert len(replayer.directory) == before + 1


def test_profile_collected_during_replay(nested_program):
    trace_set = record_traces(nested_program).trace_set
    profile = TeaProfile()
    _, tool = replay(nested_program, trace_set, profile=profile)
    assert profile.state_counts
    total_blocks = sum(profile.state_counts.values())
    assert total_blocks == tool.stats.blocks
    assert profile.trace_enters


def test_on_step_observer_called(nested_program):
    trace_set = record_traces(nested_program).trace_set
    replayer = TeaReplayer(build_tea(trace_set))
    seen = []

    def observe(prev, new, t):
        seen.append((prev, new))

    replayer.on_step = observe
    stream = ExecutionStream.record(nested_program)
    for transition in stream.block_transitions(BlockIndex(nested_program),
                                               nested_program.entry):
        replayer.step(transition)
    assert len(seen) == replayer.stats.blocks - 1  # flush step has no next


def test_cost_breakdown_categories(nested_program):
    trace_set = record_traces(nested_program).trace_set
    result, _ = replay(nested_program, trace_set)
    breakdown = result.cost.breakdown
    for category in ("instructions", "callback", "transition", "directory"):
        assert category in breakdown
    assert result.cost.cycles == pytest.approx(sum(breakdown.values()))
    assert "total" in result.cost.report()
