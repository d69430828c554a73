"""Exact-structure recorder tests on hand-crafted programs.

These pin down the precise traces each strategy must produce for small,
fully analysable programs — the strongest guard against regressions in
the recording state machines.
"""

import pytest

from repro.isa import assemble
from tests.conftest import record_traces

#: One hot loop, no branches in the body: the canonical superblock.
PURE_LOOP = """
main:
    mov ecx, 100
top:
    add eax, 1
    sub ebx, 2
    dec ecx
    jnz top
    hlt
"""

#: A loop whose body always calls one helper.
LOOP_WITH_CALL = """
main:
    mov ecx, 100
top:
    push ecx
    call helper
    pop ecx
    dec ecx
    jnz top
    hlt
helper:
    add eax, 5
    ret
"""

#: Nested counted loops, no diamonds, with a loop-entry guard.
PURE_NEST = """
main:
    mov ecx, 60
outer:
    push ecx
    mov ecx, 40
    test ecx, ecx
    jz guard
guard:
inner:
    add eax, 1
    dec ecx
    jnz inner
    pop ecx
    dec ecx
    jnz outer
    hlt
"""


def entries(trace_set):
    return {t.entry for t in trace_set}


# ---------------------------------------------------------------------
# MRET exact shapes
# ---------------------------------------------------------------------

def test_mret_pure_loop_exact():
    program = assemble(PURE_LOOP)
    trace_set = record_traces(program).trace_set
    assert len(trace_set) == 1
    trace = trace_set.traces[0]
    top = program.label_addr("top")
    assert trace.entry == top
    assert len(trace) == 1
    assert trace.tbbs[0].block.n_instrs == 4
    assert trace.tbbs[0].successors == {top: 0}
    # The only side exit is the loop's fall-through to hlt.
    (exit_label,) = trace.tbbs[0].exit_labels()
    assert program.instruction_at(exit_label).opcode == "hlt"


def test_mret_loop_with_call_exact():
    program = assemble(LOOP_WITH_CALL)
    trace_set = record_traces(program).trace_set
    top = program.label_addr("top")
    helper = program.label_addr("helper")
    trace = trace_set.trace_at(top)
    assert trace is not None
    # The superblock crosses the call into the helper; the helper's
    # *return* is a backward taken transfer (the helper sits below the
    # loop), so it ends the trace — the loop is covered by two traces
    # linked through the transition function, not one cyclic superblock.
    starts = [tbb.block.start for tbb in trace.tbbs]
    assert starts == [top, helper]
    assert trace.tbbs[-1].successors == {}
    # The continuation after the call is the second trace, ending at the
    # backward jnz without a cycle edge (its target is T1's entry).
    continuation = program.instruction_at(
        program.instruction_at(top).fallthrough
    ).fallthrough  # past push ecx; call helper
    others = [t for t in trace_set if t.entry != top]
    assert others, "exit-triggered continuation trace must exist"


def test_mret_pure_nest_exact():
    program = assemble(PURE_NEST)
    trace_set = record_traces(program).trace_set
    inner = program.label_addr("inner")
    inner_trace = trace_set.trace_at(inner)
    assert inner_trace is not None
    assert len(inner_trace) == 1
    assert inner_trace.tbbs[0].successors == {inner: 0}
    # The outer structure appears via exit-triggered traces whose blocks
    # cover the outer backedge.
    all_starts = {tbb.block.start for t in trace_set for tbb in t}
    post_inner = program.instruction_at(
        program.label_addr("inner")
    )  # anchor exists
    assert any(start > inner for start in all_starts)


#: The inner loop runs 12 trips when ``esi`` is odd and none when it is
#: even; ``outer`` reaches ``inner`` by a forward jump.
BLIND_EXIT = """
main:
    mov esi, 12
outer:
    mov ecx, esi
    and ecx, 1
    imul ecx, 12
    jmp inner
inner:
    test ecx, ecx
    jz after
body:
    dec ecx
    jmp inner
after:
    dec esi
    jnz outer
done:
    hlt
"""


def test_mret_blind_after_recording_exact():
    """A recording that ends at an existing trace's entry leaves MRET's
    cursor blind until execution next enters a trace through an entry,
    so a side exit right after it is not a trigger.

    The loop trace at ``inner`` exits to ``after`` on every outer trip
    from the second on, so ``after`` counts one side exit a trip while
    ``outer`` counts one back edge.  ``outer`` gets hot first, on trip
    10, and its trace, recorded on the even trip 11, ends at ``inner``;
    the zero-trip exit that follows is the blind one.  So ``after`` gets
    hot only on the last trip, and its trace runs on to ``hlt``.
    Counting that exit would record ``after`` on trip 11 instead, ending
    at the back edge to ``outer``.
    """
    program = assemble(BLIND_EXIT)
    label = program.label_addr
    trace_set = record_traces(program).trace_set
    shapes = [[(tbb.block.start, tbb.successors) for tbb in trace]
              for trace in trace_set]
    assert shapes == [
        [(label("inner"), {label("body"): 1}),
         (label("body"), {label("inner"): 0})],
        [(label("outer"), {})],
        [(label("after"), {label("done"): 1}),
         (label("done"), {})],
    ]


def test_mret_deterministic_across_runs(nested_program):
    first = record_traces(nested_program).trace_set
    second = record_traces(nested_program).trace_set
    assert entries(first) == entries(second)
    for trace in first:
        twin = second.trace_at(trace.entry)
        assert [t.block.key for t in trace] == [t.block.key for t in twin]


# ---------------------------------------------------------------------
# TT exact shapes
# ---------------------------------------------------------------------

def test_tt_pure_loop_trunk_only():
    program = assemble(PURE_LOOP)
    trace_set = record_traces(program, strategy="tt").trace_set
    top = program.label_addr("top")
    tree = trace_set.trace_at(top)
    assert tree is not None
    assert len(tree) == 1  # single-path loop: trunk only, no extensions
    assert tree.tbbs[0].successors == {top: 0}


def test_tt_pure_nest_stays_inner():
    """With a 40-trip inner loop, any outer-anchored path would unroll 40
    iterations and blow the path limit: TT keeps only the inner tree plus
    (at most) a small wrap of the outer body."""
    program = assemble(PURE_NEST)
    trace_set = record_traces(
        program, strategy="tt", max_path_blocks=30
    ).trace_set
    inner = program.label_addr("inner")
    tree = trace_set.trace_at(inner)
    assert tree is not None
    outer = program.label_addr("outer")
    for trace in trace_set:
        assert trace.anchor != outer or len(trace) <= 2


def test_tt_extension_adds_both_diamond_arms(nested_program):
    trace_set = record_traces(nested_program, strategy="tt").trace_set
    inner = nested_program.label_addr("inner")
    skip = nested_program.label_addr("skip")
    tree = trace_set.trace_at(inner)
    starts = [tbb.block.start for tbb in tree]
    # Both continuations of the diamond live in the tree; the skip block
    # appears at least twice (once per incoming arm) — tail duplication.
    assert starts.count(skip) >= 2


# ---------------------------------------------------------------------
# CTT exact shapes
# ---------------------------------------------------------------------

def test_ctt_pure_nest_links_at_inner_header():
    program = assemble(PURE_NEST)
    trace_set = record_traces(program, strategy="ctt").trace_set
    inner = program.label_addr("inner")
    outer = program.label_addr("outer")
    # CTT gets an outer-anchored tree whose path closes at the inner
    # header with a link-back edge (not an anchor-return).
    outer_tree = trace_set.trace_at(outer)
    assert outer_tree is not None
    found_link = False
    for tbb in outer_tree:
        for label, successor in tbb.successors.items():
            if label == inner and successor != 0:
                found_link = True
    assert found_link, "expected a link-back to the inner header"


def test_ctt_smaller_than_tt_on_nest_with_diamond(nested_program):
    tt = record_traces(nested_program, strategy="tt").trace_set
    ctt = record_traces(nested_program, strategy="ctt").trace_set
    assert ctt.n_tbbs <= tt.n_tbbs


# ---------------------------------------------------------------------
# cross-strategy invariants
# ---------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["mret", "mfet", "tt", "ctt"])
def test_every_strategy_produces_valid_cyclic_hot_trace(strategy):
    program = assemble(PURE_LOOP)
    trace_set = record_traces(program, strategy=strategy).trace_set
    assert trace_set.validate() == []
    top = program.label_addr("top")
    trace = trace_set.trace_at(top)
    assert trace is not None, strategy
    # Whatever the strategy, the hot loop must be representable as a
    # cycle through its head.
    assert trace.tbbs[0].block.start == top
    reachable_back = any(
        successor == 0
        for tbb in trace
        for successor in tbb.successors.values()
    )
    assert reachable_back, strategy


@pytest.mark.parametrize("strategy", ["mret", "mfet", "tt", "ctt"])
def test_no_strategy_records_cold_code(strategy):
    program = assemble(PURE_LOOP)
    trace_set = record_traces(
        program, strategy=strategy, hot_threshold=10
    ).trace_set
    hlt_addr = program.instructions[-1].addr
    for trace in trace_set:
        for tbb in trace:
            assert tbb.block.terminator.opcode != "hlt"
