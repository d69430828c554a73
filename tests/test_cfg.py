"""Dynamic block discovery, static CFG and loop detection tests."""

import pytest

from repro.cfg import (
    FLAVOR_PIN,
    FLAVOR_STARDBT,
    BlockIndex,
    DynamicBlockBuilder,
    build_cfg,
    find_loops,
)
from repro.cpu import Executor
from repro.isa import assemble

REP_SOURCE = """
main:
    mov ecx, 3
outer:
    push ecx
    mov ecx, 4
    mov esi, src
    mov edi, dst
    rep movsd
    pop ecx
    dec ecx
    jnz outer
    hlt
.data
src: .word 1, 2, 3, 4
dst: .zero 4
"""


def collect_transitions(program, flavor):
    index = BlockIndex(program)
    transitions = []
    builder = DynamicBlockBuilder(
        index, program.entry, flavor=flavor, on_transition=transitions.append
    )
    executor = Executor(program)
    consumed = [0, 0]

    def on_event(event):
        consumed[0] += event.instrs_dbt
        consumed[1] += event.instrs_pin
        builder.feed(event)

    result = executor.run(on_event)
    builder.flush(
        result.final_pc,
        result.instrs_dbt - consumed[0],
        result.instrs_pin - consumed[1],
    )
    return transitions, result, index


# ---------------------------------------------------------------------
# BlockIndex
# ---------------------------------------------------------------------

def test_block_interning(nested_program):
    index = BlockIndex(nested_program)
    first = index.block(nested_program.entry, nested_program.entry)
    second = index.block(nested_program.entry, nested_program.entry)
    assert first is second
    assert len(index) == 1


def test_block_metadata(simple_loop_program):
    program = simple_loop_program
    index = BlockIndex(program)
    loop = program.label_addr("loop")
    jnz = program.instructions[-2]
    block = index.block(loop, jnz.addr)
    assert block.n_instrs == 3
    assert block.size_bytes == sum(
        i.length for i in program.instructions[2:5]
    )
    assert block.terminator.opcode == "jnz"


def test_unreachable_block_end_detected(simple_loop_program):
    from repro.errors import ReproError
    index = BlockIndex(simple_loop_program)
    program = simple_loop_program
    second = program.instructions[1].addr
    # An end address *before* the start can never be reached by walking
    # forward; the walk falls off the code and fails loudly (TraceError
    # for a cyclic walk, ExecutionError when leaving the image).
    with pytest.raises(ReproError):
        index.block(second, program.entry)


# ---------------------------------------------------------------------
# dynamic block builder
# ---------------------------------------------------------------------

def test_transitions_cover_all_instructions(nested_program):
    transitions, result, _ = collect_transitions(nested_program, FLAVOR_STARDBT)
    assert sum(t.instrs_dbt for t in transitions) == result.instrs_dbt
    assert sum(t.instrs_pin for t in transitions) == result.instrs_pin


def test_blocks_chain_contiguously(nested_program):
    transitions, _, _ = collect_transitions(nested_program, FLAVOR_STARDBT)
    for previous, current in zip(transitions, transitions[1:]):
        assert previous.next_start == current.block.start
    assert transitions[-1].next_start is None  # flush


def test_transition_repr_names_its_successor(nested_program):
    transitions, _, _ = collect_transitions(nested_program, FLAVOR_STARDBT)
    first, last = transitions[0], transitions[-1]
    assert repr(first) == "<Transition %r -> %#x>" % (first.block,
                                                      first.next_start)
    # The terminal transition has no successor PC to format.
    assert repr(last) == "<Transition %r -> end of run>" % (last.block,)


def test_stardbt_merges_rep_splits():
    program = assemble(REP_SOURCE)
    dbt_transitions, result, _ = collect_transitions(program, FLAVOR_STARDBT)
    pin_transitions, _, _ = collect_transitions(program, FLAVOR_PIN)
    # Pin splits at the REP op: strictly more dynamic blocks.
    assert len(pin_transitions) > len(dbt_transitions)
    # But both account every instruction.
    assert sum(t.instrs_dbt for t in pin_transitions) == result.instrs_dbt
    assert sum(t.instrs_pin for t in dbt_transitions) == result.instrs_pin


def test_stardbt_block_spans_rep():
    program = assemble(REP_SOURCE)
    transitions, _, index = collect_transitions(program, FLAVOR_STARDBT)
    outer = program.label_addr("outer")
    spanning = [t.block for t in transitions if t.block.start == outer]
    assert spanning, "outer block must appear"
    # The StarDBT block runs from 'outer' through the jnz, across the REP.
    assert any(b.terminator.opcode == "jnz" for b in spanning)


def test_pin_block_ends_at_rep():
    program = assemble(REP_SOURCE)
    transitions, _, _ = collect_transitions(program, FLAVOR_PIN)
    rep_blocks = [t.block for t in transitions
                  if t.block.terminator.opcode == "rep_movsd"]
    assert rep_blocks


def test_builder_rejects_unknown_flavor(nested_program):
    with pytest.raises(ValueError):
        DynamicBlockBuilder(BlockIndex(nested_program), 0, flavor="qemu")


# ---------------------------------------------------------------------
# static CFG
# ---------------------------------------------------------------------

def test_cfg_blocks_partition_code(nested_program):
    cfg = build_cfg(nested_program)
    covered = set()
    for block in cfg.blocks.values():
        addr = block.start
        while True:
            assert addr not in covered, "blocks must not overlap"
            covered.add(addr)
            if addr == block.end:
                break
            addr = nested_program.instruction_at(addr).fallthrough
    assert covered == {i.addr for i in nested_program}


def test_cfg_edges(nested_program):
    cfg = build_cfg(nested_program)
    inner = nested_program.label_addr("inner")
    skip = nested_program.label_addr("skip")
    successors = set(cfg.successors(inner))
    assert skip in successors
    assert len(successors) == 2  # jnz skip: taken + fallthrough


def test_cfg_dot_rendering(nested_program):
    dot = build_cfg(nested_program).to_dot()
    assert dot.startswith("digraph")
    assert "inner" in dot


def test_cfg_call_edges(call_loop_program):
    cfg = build_cfg(call_loop_program)
    loop = call_loop_program.label_addr("loop")
    helper = call_loop_program.label_addr("helper")
    # The block containing the call has an edge to the helper.
    call_block = next(
        start for start, block in cfg.blocks.items()
        if block.terminator.is_call
    )
    assert helper in cfg.successors(call_block)


# ---------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------

def test_loop_headers_found(nested_program):
    cfg = build_cfg(nested_program)
    loops = find_loops(cfg)
    outer = nested_program.label_addr("outer")
    inner = nested_program.label_addr("inner")
    assert inner in loops.headers
    assert outer in loops.headers


def test_loop_nesting_depth(nested_program):
    cfg = build_cfg(nested_program)
    loops = find_loops(cfg)
    inner = nested_program.label_addr("inner")
    outer = nested_program.label_addr("outer")
    assert loops.loop_depth(inner) == 2  # in both natural loops
    assert loops.loop_depth(outer) == 1


def test_loop_bodies_contain_back_edge_sources(nested_program):
    cfg = build_cfg(nested_program)
    loops = find_loops(cfg)
    for tail, header in loops.back_edges:
        assert tail in loops.bodies[header]
        assert header in loops.bodies[header]


def test_no_loops_in_straightline():
    program = assemble("main:\n    add eax, 1\n    add ebx, 2\n    hlt")
    loops = find_loops(build_cfg(program))
    assert not loops.headers
    assert not loops.back_edges
