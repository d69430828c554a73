"""Trace-selection strategy tests: MRET, MFET, TT, CTT."""

import pytest

from repro.isa import assemble
from repro.traces import make_recorder
from repro.traces.recorder import (
    STATE_INITIAL,
    TraceRecorder,
)
from tests.conftest import (
    SIMPLE_LOOP_SOURCE,
    record_traces,
)

TWO_SIBLING_LOOPS = """
main:
    mov ecx, 300
    mov eax, 7
outer:
    push ecx
    imul eax, 1103515245
    add eax, 12345
    mov ecx, eax
    shr ecx, 5
    and ecx, 7
    add ecx, 2
    test ecx, ecx
    jz g1
g1:
inner1:
    add edx, 1
    dec ecx
    jnz inner1
    mov ecx, eax
    shr ecx, 9
    and ecx, 7
    add ecx, 2
    test ecx, ecx
    jz g2
g2:
inner2:
    add esi, 1
    dec ecx
    jnz inner2
    pop ecx
    dec ecx
    jnz outer
    hlt
"""


def test_make_recorder_names():
    assert make_recorder("mret").kind == "mret"
    assert make_recorder("mfet").kind == "mfet"
    assert make_recorder("tt").kind == "tt"
    assert make_recorder("ctt").kind == "ctt"
    with pytest.raises(ValueError):
        make_recorder("nope")


def test_recorder_state_machine_states():
    recorder = make_recorder("mret")
    assert recorder.state == STATE_INITIAL
    # After any observation the recorder must be out of Initial.
    result = record_traces(assemble(SIMPLE_LOOP_SOURCE))
    assert result.trace_set.kind == "mret"


def test_base_recorder_hooks_are_abstract():
    recorder = TraceRecorder()
    with pytest.raises(NotImplementedError):
        recorder._observe_executing(None, None, 0, False)
    with pytest.raises(NotImplementedError):
        recorder._observe_creating(None, None, 0, False)


# ---------------------------------------------------------------------
# MRET
# ---------------------------------------------------------------------

def test_mret_simple_loop_single_trace(simple_loop_program):
    trace_set = record_traces(simple_loop_program).trace_set
    hot = [t for t in trace_set
           if t.entry == simple_loop_program.label_addr("loop")]
    assert len(hot) == 1
    trace = hot[0]
    assert len(trace) == 1  # one-block loop body
    # The cycle edge back to the trace head (Figure 3's pattern).
    assert trace.tbbs[-1].successors.get(trace.entry) == 0


def test_mret_threshold_controls_creation(simple_loop_program):
    eager = record_traces(simple_loop_program, hot_threshold=2).trace_set
    never = record_traces(simple_loop_program, hot_threshold=100_000).trace_set
    assert len(eager) >= 1
    assert len(never) == 0


def test_mret_side_exit_spawns_secondary_trace(nested_program):
    # The diamond's rarely-taken arm must become its own trace via the
    # exit-to-cold start-of-trace condition (the paper's T2).
    trace_set = record_traces(nested_program).trace_set
    skip = nested_program.label_addr("skip")
    entries = {t.entry for t in trace_set}
    assert skip in entries or any(
        tbb.block.start == skip for t in trace_set for tbb in t
    )


def test_mret_trace_ends_at_existing_trace(nested_program):
    trace_set = record_traces(nested_program).trace_set
    # No trace may *contain* another trace's entry block beyond its head
    # followed by more blocks (MRET stops at existing trace heads).
    entries = {t.entry for t in trace_set}
    for trace in trace_set:
        for tbb in trace.tbbs[1:]:
            assert tbb.block.start not in entries


def test_mret_respects_block_limit(nested_program):
    trace_set = record_traces(
        nested_program, max_trace_blocks=2
    ).trace_set
    assert all(len(t) <= 2 for t in trace_set)


def test_mret_budget_stops_recording(nested_program):
    result = record_traces(nested_program, max_total_tbbs=3)
    assert result.trace_set.n_tbbs <= 4  # may finish the in-flight trace


def test_mret_through_calls(call_loop_program):
    trace_set = record_traces(call_loop_program).trace_set
    helper = call_loop_program.label_addr("helper")
    in_trace_blocks = {
        tbb.block.start for t in trace_set for tbb in t
    }
    assert helper in in_trace_blocks  # traces cross call boundaries


# ---------------------------------------------------------------------
# MFET
# ---------------------------------------------------------------------

def test_mfet_records_traces(nested_program):
    trace_set = record_traces(nested_program, strategy="mfet").trace_set
    assert len(trace_set) >= 1
    assert trace_set.validate() == []


def test_mfet_covers_forward_hot_edges(call_loop_program):
    # MFET triggers on any hot taken edge, including the call edge.
    trace_set = record_traces(call_loop_program, strategy="mfet").trace_set
    entries = {t.entry for t in trace_set}
    helper = call_loop_program.label_addr("helper")
    assert helper in entries or len(trace_set) >= 1


# ---------------------------------------------------------------------
# Trace Trees
# ---------------------------------------------------------------------

def test_tt_anchors_at_loop_header(simple_loop_program):
    trace_set = record_traces(simple_loop_program, strategy="tt").trace_set
    loop = simple_loop_program.label_addr("loop")
    assert trace_set.has_entry(loop)
    tree = trace_set.trace_at(loop)
    assert tree.anchor == loop
    # Trunk ends with an edge back to the root.
    assert tree.tbbs[0].block.start == loop


def test_tt_extends_on_side_exits(nested_program):
    trace_set = record_traces(nested_program, strategy="tt").trace_set
    inner = nested_program.label_addr("inner")
    tree = trace_set.trace_at(inner)
    assert tree is not None
    # Both diamond arms eventually live in the tree.
    starts = {tbb.block.start for tbb in tree}
    skip = nested_program.label_addr("skip")
    assert skip in starts


def test_tt_unrolls_sibling_loops():
    program = assemble(TWO_SIBLING_LOOPS)
    tt = record_traces(program, strategy="tt",
                       max_path_blocks=64).trace_set
    ctt = record_traces(program, strategy="ctt",
                        max_path_blocks=64).trace_set
    mret = record_traces(program, strategy="mret").trace_set
    # TT must duplicate unrolled sibling-loop iterations: far more TBBs.
    assert tt.n_tbbs > 1.5 * ctt.n_tbbs
    assert tt.n_tbbs > 2 * mret.n_tbbs


def test_tt_tree_size_cap():
    program = assemble(TWO_SIBLING_LOOPS)
    capped = record_traces(
        program, strategy="tt", max_tree_tbbs=10
    ).trace_set
    assert all(len(t) <= 10 + 64 for t in capped)  # cap + one path slack


def test_tt_duplicate_instances_within_tree():
    program = assemble(TWO_SIBLING_LOOPS)
    tt = record_traces(program, strategy="tt", max_path_blocks=64).trace_set
    # Definition 2 at work: some block occurs as several TBBs in one tree.
    for tree in tt:
        starts = [tbb.block.start for tbb in tree]
        if len(starts) != len(set(starts)):
            return
    pytest.fail("expected duplicated block instances in a trace tree")


# ---------------------------------------------------------------------
# Compact Trace Trees
# ---------------------------------------------------------------------

def test_ctt_links_back_at_loop_headers():
    program = assemble(TWO_SIBLING_LOOPS)
    ctt = record_traces(program, strategy="ctt").trace_set
    # Some edge must point to a non-root TBB (the header link-back).
    found_internal_link = False
    for tree in ctt:
        for tbb in tree:
            for label, successor in tbb.successors.items():
                if successor not in (0, tbb.index + 1):
                    found_internal_link = True
    assert found_internal_link


def test_ctt_no_unrolling():
    program = assemble(TWO_SIBLING_LOOPS)
    ctt = record_traces(program, strategy="ctt").trace_set
    # An unrolled inner loop would show the same start many times in a
    # straight chain; CTT may duplicate across paths but must stay far
    # below TT.
    tt = record_traces(program, strategy="tt", max_path_blocks=64).trace_set
    assert ctt.n_tbbs < tt.n_tbbs


#: The odd iterations of ``loop`` take a backward ``jmp`` to ``detour``,
#: which is on no recorded path and in no tree when the path reaches it.
BACKWARD_JMP_DETOUR = """
main:
    mov ecx, 400
    jmp loop
detour:
    add eax, 3
    jmp cont
loop:
    add eax, 1
    test ecx, 1
    jz cont
    jmp detour
cont:
    dec ecx
    jnz loop
    hlt
"""


def test_ctt_aborts_at_a_backward_jmp_it_cannot_close():
    program = assemble(BACKWARD_JMP_DETOUR)
    detour = program.label_addr("detour")

    def starts(strategy):
        trace_set = record_traces(program, strategy=strategy).trace_set
        return {tbb.block.start for trace in trace_set for tbb in trace}

    # TT records through the backward jmp (unrolling); CTT aborts that
    # path and keeps only the even iterations' path.
    assert detour in starts("tt")
    assert detour not in starts("ctt")


def test_ctt_validates(nested_program):
    trace_set = record_traces(nested_program, strategy="ctt").trace_set
    assert trace_set.validate() == []


def test_strategies_cover_same_hot_entry(nested_program):
    inner = nested_program.label_addr("inner")
    for strategy in ("mret", "ctt", "tt"):
        trace_set = record_traces(nested_program, strategy=strategy).trace_set
        starts = {tbb.block.start for t in trace_set for tbb in t}
        assert inner in starts, strategy
