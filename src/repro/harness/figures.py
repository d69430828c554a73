"""Regenerators for the paper's Figures 1-3.

These are worked examples, not measurements: Figure 1 is the memcpy loop,
its trace, and the duplicated trace used for unroll profiling (Section
2); Figure 2 is the linked-list scan, its CFG and the MRET trace pair
T1/T2; Figure 3 lifts those traces into the trace DFA and the
whole-program TEA with the NTE state (Algorithm 1).  Each function
returns renderable text (listings + Graphviz DOT); the figure tests
assert the exact automaton structure.
"""

from repro.cfg import BlockIndex, build_cfg
from repro.core import build_tea, duplicate_trace
from repro.core.replay import ReplayConfig, TeaReplayer
from repro.cpu import ExecutionStream
from repro.traces.model import TraceSet
from repro.workloads import figure1_program, figure2_program


def _block_from_label(program, block_index, label, single=False):
    """Intern the block starting at ``label``.

    The block runs to the first control transfer, or is the single
    instruction at the label when ``single`` (the paper's ``$$inc``,
    which "does not end in a branch instruction").
    """
    start = program.label_addr(label)
    addr = start
    while True:
        instr = program.instruction_at(addr)
        if single or instr.is_control:
            return block_index.block(start, addr)
        addr = instr.fallthrough


def figure1_traces():
    """The Figure 1 memcpy loop: original and duplicated trace.

    Returns ``(program, trace_set, duplicated_set)`` where the trace is
    the loop-body superblock with its cycle edge (Figure 1(b)) and the
    duplicated set holds the two-copy version (Figure 1(d)).
    """
    program = figure1_program()
    block_index = BlockIndex(program)
    loop_block = _block_from_label(program, block_index, "fig1_loop")

    trace_set = TraceSet(kind="mret")
    trace = trace_set.new_trace(anchor=loop_block.start)
    trace.add_block(loop_block)
    trace.add_edge(0, 0)  # the loop's cycle edge
    trace_set.add(trace)

    duplicated_set = TraceSet(kind="mret")
    duplicated_set.add(duplicate_trace(trace, factor=2))
    return program, trace_set, duplicated_set


def figure2_traces():
    """The Figure 2 linked-list scan with the paper's T1/T2 MRET traces.

    T1 = $$begin, $$header, $$next (with the next->header cycle edge);
    T2 = $$inc, $$next.  Block $$inc is a single non-branch instruction,
    exactly as the paper discusses under Definition 1.
    """
    program = figure2_program()
    block_index = BlockIndex(program)
    begin = _block_from_label(program, block_index, "begin")
    header = _block_from_label(program, block_index, "header")
    inc = _block_from_label(program, block_index, "inc_", single=True)
    nxt = _block_from_label(program, block_index, "next")

    trace_set = TraceSet(kind="mret")
    t1 = trace_set.new_trace(anchor=begin.start)
    t1.add_block(begin)   # $$T1.begin
    t1.add_block(header)  # $$T1.header
    t1.add_block(nxt)     # $$T1.next
    t1.add_edge(0, 1)
    t1.add_edge(1, 2)
    t1.add_edge(2, 1)     # the next -> header cycle
    trace_set.add(t1)

    t2 = trace_set.new_trace(anchor=inc.start)
    t2.add_block(inc)     # $$T2.inc
    t2.add_block(nxt)     # $$T2.next
    t2.add_edge(0, 1)
    trace_set.add(t2)
    return program, trace_set


def figure3_tea():
    """Figure 3: the whole-program TEA for the Figure 2 traces."""
    program, trace_set = figure2_traces()
    tea = build_tea(trace_set)
    return program, trace_set, tea


def _trace_listing(trace, program):
    lines = ["Trace T%d (%s):" % (trace.trace_id, trace.kind)]
    for tbb in trace:
        successors = ", ".join(
            "%#x->%s#%d" % (label, trace.tbbs[index].name, index)
            for label, index in sorted(tbb.successors.items())
        )
        lines.append(
            "  %-22s#%d [%#x..%#x]  %s"
            % (tbb.name, tbb.index, tbb.block.start, tbb.block.end,
               successors or "(exit to NTE)")
        )
    return "\n".join(lines)


def render_figure1():
    program, trace_set, duplicated_set = figure1_traces()
    sections = [
        "Figure 1(a): code snippet",
        program.disassemble(),
        "",
        "Figure 1(b): the recorded trace",
        _trace_listing(trace_set.traces[0], program),
        "",
        "Figure 1(d): the trace duplicated for unroll profiling",
        _trace_listing(duplicated_set.traces[0], program),
    ]
    return "\n".join(sections)


def render_figure2():
    program, trace_set = figure2_traces()
    cfg = build_cfg(program)
    sections = [
        "Figure 2(a): sample code",
        program.disassemble(),
        "",
        "Figure 2(b): CFG (Graphviz)",
        cfg.to_dot(),
        "",
        "Figure 2(c): MRET traces",
    ]
    for trace in trace_set:
        sections.append(_trace_listing(trace, program))
    return "\n".join(sections)


def render_figure3(demo_steps=12):
    program, trace_set, tea = figure3_tea()
    sections = [
        "Figure 3(b): TEA for the whole program (Graphviz)",
        tea.to_dot(),
        "",
        "Replaying the first %d block transitions through the TEA:" % demo_steps,
    ]
    replayer = TeaReplayer(tea, config=ReplayConfig.global_local())
    block_index = BlockIndex(program)
    steps = []

    def on_transition(transition):
        if len(steps) >= demo_steps or transition.next_start is None:
            return
        state = replayer.step(transition)
        steps.append(
            "  pc=%#x executed, next=%#x -> state %s"
            % (transition.block.start, transition.next_start, state.name)
        )

    stream = ExecutionStream.record(program)
    for transition in stream.block_transitions(block_index, program.entry):
        on_transition(transition)
    sections.extend(steps)
    return "\n".join(sections)


def render_all():
    """Every figure, concatenated (the CLI 'figures' command)."""
    return "\n\n".join(
        [
            "=" * 70,
            render_figure1(),
            "=" * 70,
            render_figure2(),
            "=" * 70,
            render_figure3(),
        ]
    )
