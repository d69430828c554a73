"""Instruction-granularity TEA tests."""

import pytest

from repro.cfg.basic_block import BlockIndex
from repro.cfg.builder import FLAVOR_STARDBT, DynamicBlockBuilder
from repro.core import MemoryModel, build_tea
from repro.core.instruction_level import (
    InstructionTeaReplayer,
    build_instruction_tea,
    instruction_tea_bytes,
)
from repro.cpu import Executor
from repro.errors import TeaError
from repro.harness.figures import figure2_traces
from tests.conftest import record_traces


def drive_replayer(program, replayer):
    index = BlockIndex(program)
    builder = DynamicBlockBuilder(
        index, program.entry, flavor=FLAVOR_STARDBT,
        on_transition=replayer.step_block,
    )
    executor = Executor(program)
    consumed = [0, 0]

    def on_event(event):
        consumed[0] += event.instrs_dbt
        consumed[1] += event.instrs_pin
        builder.feed(event)

    result = executor.run(on_event)
    builder.flush(result.final_pc, result.instrs_dbt - consumed[0],
                  result.instrs_pin - consumed[1])
    return result


def test_states_one_per_trace_instruction(nested_program, nested_traces):
    tea = build_instruction_tea(nested_traces, nested_program)
    expected = sum(
        tbb.block.n_instrs for trace in nested_traces for tbb in trace
    )
    assert tea.n_states == 1 + expected


def test_fallthrough_chain_transitions(nested_program, nested_traces):
    tea = build_instruction_tea(nested_traces, nested_program)
    trace = nested_traces.traces[0]
    tbb = trace.tbbs[0]
    state = tea.state_at(trace.trace_id, 0, 0)
    walked = 1
    addr = tbb.block.start
    while addr != tbb.block.end:
        addr = nested_program.instruction_at(addr).fallthrough
        state = state.transitions[addr]
        walked += 1
        assert state.tbb.addr == addr
    assert walked == tbb.block.n_instrs


def test_block_edges_leave_from_last_instruction(nested_program,
                                                 nested_traces):
    tea = build_instruction_tea(nested_traces, nested_program)
    for trace in nested_traces:
        for tbb in trace:
            last = tea.state_at(trace.trace_id, tbb.index,
                                tbb.block.n_instrs - 1)
            for label, successor_index in tbb.successors.items():
                target = last.transitions[label]
                assert target.tbb.tbb_index == successor_index
                assert target.tbb.offset == 0


def test_heads_are_first_instructions(nested_program, nested_traces):
    tea = build_instruction_tea(nested_traces, nested_program)
    for entry, head in tea.heads.items():
        assert head.tbb.addr == entry
        assert head.tbb.offset == 0


def test_missing_state_raises(nested_program, nested_traces):
    tea = build_instruction_tea(nested_traces, nested_program)
    with pytest.raises(TeaError):
        tea.state_at(999, 0, 0)


def test_figure2_instruction_level_disambiguation():
    """The paper's claim at instruction granularity: the current PC plus
    the state disambiguates which *instance* of an instruction runs."""
    program, trace_set = figure2_traces()
    tea = build_instruction_tea(trace_set, program)
    nxt = program.label_addr("next")
    holders = [
        state for state in tea.states[1:] if state.tbb.addr == nxt
    ]
    # $$next's first instruction exists in both T1 and T2.
    assert {state.tbb.trace_id for state in holders} == {1, 2}


def test_replay_coverage_matches_block_level(simple_loop_program):
    trace_set = record_traces(simple_loop_program).trace_set
    block_tea = build_tea(trace_set)
    from repro.core import TeaReplayer
    block_replayer = TeaReplayer(block_tea)

    instr_tea = build_instruction_tea(trace_set, simple_loop_program)
    instr_replayer = InstructionTeaReplayer(instr_tea, simple_loop_program)

    index = BlockIndex(simple_loop_program)

    def drive(step):
        builder = DynamicBlockBuilder(
            BlockIndex(simple_loop_program), simple_loop_program.entry,
            flavor=FLAVOR_STARDBT, on_transition=step,
        )
        executor = Executor(simple_loop_program)
        consumed = [0, 0]

        def on_event(event):
            consumed[0] += event.instrs_dbt
            consumed[1] += event.instrs_pin
            builder.feed(event)

        result = executor.run(on_event)
        builder.flush(result.final_pc, result.instrs_dbt - consumed[0],
                      result.instrs_pin - consumed[1])

    drive(lambda t: block_replayer.step(t.next_start, t.instrs_dbt,
                                        t.instrs_pin))
    drive(instr_replayer.step_block)
    block_cov = block_replayer.stats.coverage(pin_counting=False)
    instr_cov = instr_replayer.stats.coverage(pin_counting=False)
    assert instr_cov == pytest.approx(block_cov, abs=0.02)


def test_instruction_level_costs_more(simple_loop_program):
    """The honest trade-off: instruction granularity multiplies the
    per-step work — why the paper's implementation uses basic blocks."""
    trace_set = record_traces(simple_loop_program).trace_set
    from repro.core import TeaReplayer
    block_replayer = TeaReplayer(build_tea(trace_set))
    instr_replayer = InstructionTeaReplayer(
        build_instruction_tea(trace_set, simple_loop_program),
        simple_loop_program,
    )
    drive_replayer(simple_loop_program, instr_replayer)

    index = BlockIndex(simple_loop_program)
    builder = DynamicBlockBuilder(
        index, simple_loop_program.entry, flavor=FLAVOR_STARDBT,
        on_transition=lambda t: block_replayer.step(
            t.next_start, t.instrs_dbt, t.instrs_pin),
    )
    executor = Executor(simple_loop_program)
    consumed = [0, 0]

    def on_event(event):
        consumed[0] += event.instrs_dbt
        consumed[1] += event.instrs_pin
        builder.feed(event)

    result = executor.run(on_event)
    builder.flush(result.final_pc, result.instrs_dbt - consumed[0],
                  result.instrs_pin - consumed[1])

    assert instr_replayer.cost.cycles > 1.5 * block_replayer.cost.cycles


def test_instruction_tea_is_bigger_but_still_beats_dbt(nested_program,
                                                       nested_traces):
    model = MemoryModel()
    block_tea = build_tea(nested_traces)
    instr_tea = build_instruction_tea(nested_traces, nested_program)
    block_bytes = model.tea_bytes_for_automaton(block_tea)
    instr_bytes = instruction_tea_bytes(instr_tea, model)
    dbt_bytes = model.dbt_total_bytes(nested_traces)
    assert block_bytes < instr_bytes
    assert instr_bytes < dbt_bytes  # still no code replication
