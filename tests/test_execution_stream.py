"""Recorded execution streams versus the live callback loop.

The oracle below is MiniPin's and StarDBT's pre-stream execution path:
the interpreter drives a per-event callback that charges Pin's own
costs, feeds a ``DynamicBlockBuilder`` and delivers each transition as
it completes.  Every engine and tool that now consumes an
:class:`~repro.cpu.stream.ExecutionStream` must reproduce it exactly:
result fields, ``cycles`` compared with ``==``, the cost breakdown
including its key order, replay statistics and coverage, StarDBT's
trace sets and costs, and the ``InstructionLimitExceeded`` behaviour.
"""

import sys
import threading

import pytest

from repro.cfg.builder import FLAVOR_STARDBT, DynamicBlockBuilder
from repro.core import PackedBatch, ReplayConfig, TeaProfile
from repro.cpu.events import (
    EDGE_IND_CALL,
    EDGE_IND_JMP,
    EDGE_RET,
    event_code,
)
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS, Executor
from repro.cpu.stream import ExecutionStream, check_stream_bytes
from repro.dbt import CostParameters, StarDBT
from repro.errors import InstructionLimitExceeded
from repro.isa import assemble
from repro.obs import Observability
from repro.pin import (
    Pin,
    PinResult,
    TeaRecordTool,
    TeaReplayTool,
    pack_transitions,
    run_native,
)
from repro.pin import pin as pin_module
from repro.pin.pin import _EngineCharges
from repro.traces.recorder import STATE_CREATING, RecorderLimits
from repro.traces.serialization import trace_set_to_json
from repro.workloads import load_benchmark

_INDIRECT_KINDS = (EDGE_IND_JMP, EDGE_IND_CALL, EDGE_RET)

#: A loop full of Pin block splitters: ``cpuid`` and REP inside the
#: body, a call/return pair, a conditional branch to its own
#: fall-through (taken or not, it lands on the same PC), and splitters
#: after the last branch, merged into the terminal block.
SPLIT_SOURCE = """
main:
    mov ebp, 90
loop:
    cpuid
    mov ecx, 5
    mov esi, src
    mov edi, dst
    rep movsd
    call helper
    test ebp, 1
    jz next
next:
    dec ebp
    jnz loop
    cpuid
    mov ecx, 3
    mov esi, src
    mov edi, dst
    rep movsd
    hlt
helper:
    add eax, 1
    ret
.data
src: .word 1, 2, 3, 4, 5
dst: .zero 5
"""

WORKLOADS = ("164.gzip@0.15", "176.gcc@0.1", "177.mesa@0.3", "splits")

CONFIGS = {
    "global_local": ReplayConfig.global_local,
    "global_no_local": ReplayConfig.global_no_local,
    "no_global_local": ReplayConfig.no_global_local,
    "no_global_no_local": ReplayConfig.no_global_no_local,
}

#: ``(walk, batch_size)`` of a :class:`TeaReplayTool`: the object-graph
#: ``step()`` walk a ``TeaProfile`` selects, and the compiled walk over
#: packed batches, with the default batch and with a small one so runs
#: cross many batch boundaries.
WALKS = (("object", None), ("compiled", None), ("compiled", 100))

_CACHE = {}


def workload(name):
    """``(program, stream, trace_set)`` for a workload, built once."""
    found = _CACHE.get(name)
    if found is None:
        if name == "splits":
            program = assemble(SPLIT_SOURCE)
        else:
            benchmark, scale = name.split("@")
            program = load_benchmark(benchmark, scale=float(scale)).program
        stream = ExecutionStream.record(program)
        traces = live_stardbt(program).trace_set
        found = _CACHE[name] = (program, stream, traces)
    return found


# ---------------------------------------------------------------------
# the oracle: the live callback loop
# ---------------------------------------------------------------------

def live_pin(program, tool=None, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
             pin=None):
    """MiniPin's live run: one interpreter run driving the pintool.

    ``pin`` (optional) is the engine object whose cost model and block
    index the run uses; its own :meth:`Pin.run` is never called.
    """
    if pin is None:
        pin = Pin(program, tool=tool, max_instructions=max_instructions)
    cost = pin.cost
    params = cost.params
    deliver = flush = None
    if tool is not None:
        tool.attach(pin)
        deliver = tool.on_transition
        if tool.packed_batch:
            deliver, flush = packing(tool)
    builder = DynamicBlockBuilder(pin.block_index, program.entry,
                                  flavor=FLAVOR_STARDBT)
    executor = Executor(program, max_instructions=max_instructions)
    consumed = [0, 0]
    pin_blocks = [0]
    seen_ends = set()

    def on_event(event):
        consumed[0] += event.instrs_dbt
        consumed[1] += event.instrs_pin
        pin_blocks[0] += 1
        cost.charge("pin_dispatch", params.PIN_BLOCK_STUB)
        if event.pc not in seen_ends:
            seen_ends.add(event.pc)
            cost.charge("pin_translation",
                        params.PIN_TRANSLATION_PER_INSTR * event.instrs_dbt)
        if event.kind in _INDIRECT_KINDS:
            cost.charge("pin_indirect", params.PIN_INDIRECT_EXTRA)
        cost.charge_instructions(event.instrs_pin)
        transition = builder.feed(event)
        if transition is not None and deliver is not None:
            deliver(transition)

    result = executor.run(on_event)
    cost.charge_instructions(result.instrs_pin - consumed[1])
    final = builder.flush(result.final_pc, result.instrs_dbt - consumed[0],
                          result.instrs_pin - consumed[1])
    if deliver is not None:
        deliver(final)
    if flush is not None:
        flush()
    if tool is not None:
        tool.on_finish()
    return PinResult(cost, result.instrs_dbt, result.instrs_pin,
                     pin_blocks[0] + 1, tool, result.halted)


def packing(tool):
    """``(deliver, flush)`` feeding a packed-batch tool per transition:
    each full batch of ``tool.packed_batch`` goes to ``on_packed`` as it
    fills, ``flush()`` hands over the remainder."""
    pending = []

    def deliver(transition):
        pending.append(transition)
        if len(pending) == tool.packed_batch:
            flush()

    def flush():
        if pending:
            tool.on_packed(PackedBatch(pack_transitions(pending)))
            pending.clear()

    return deliver, flush


def live_transitions(program):
    """The StarDBT-flavour transitions a live builder produces."""
    builder = DynamicBlockBuilder(Pin(program).block_index, program.entry,
                                  flavor=FLAVOR_STARDBT)
    transitions = []
    consumed = [0, 0]

    def on_event(event):
        consumed[0] += event.instrs_dbt
        consumed[1] += event.instrs_pin
        transition = builder.feed(event)
        if transition is not None:
            transitions.append(transition)

    result = Executor(program).run(on_event)
    transitions.append(builder.flush(result.final_pc,
                                     result.instrs_dbt - consumed[0],
                                     result.instrs_pin - consumed[1]))
    return transitions


class LiveDBT:
    """StarDBT's pre-stream execution path, kept as the oracle: one
    ``CostModel.charge`` per charge and one trace-cursor step per
    transition, on a :class:`StarDBT` whose own :meth:`StarDBT.run` is
    never called."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.translated = set()
        self.cursor = None
        self.covered_dbt = 0
        self.blocks = 0
        runtime.recorder.on_trace = self.trace_committed

    def trace_committed(self, trace):
        cost = self.runtime.cost
        cost.charge("trace_build",
                    cost.params.DBT_TRACE_BUILD_PER_TBB * len(trace))
        self.runtime.code_cache.install(trace)

    def handle(self, transition):
        runtime = self.runtime
        cost = runtime.cost
        params = cost.params
        block = transition.block
        self.blocks += 1
        if block.key not in self.translated:
            self.translated.add(block.key)
            cost.charge("translation",
                        params.DBT_TRANSLATION_PER_INSTR * block.n_instrs)
        if self.cursor is not None:
            self.covered_dbt += transition.instrs_dbt
            cost.charge_instructions(transition.instrs_dbt)
        else:
            cost.charge_instructions(transition.instrs_dbt,
                                     1.0 + params.DBT_COLD_TAX)
        next_start = transition.next_start
        traces = runtime.recorder.traces
        if next_start is None:
            self.cursor = None
        elif self.cursor is not None:
            trace, index = self.cursor
            successor = trace.tbbs[index].successors.get(next_start)
            if successor is not None:
                self.cursor = (trace, successor)
            elif next_start == trace.entry:
                self.cursor = (trace, 0)
            else:
                entered = traces.trace_at(next_start)
                self.cursor = (entered, 0) if entered is not None else None
        else:
            entered = traces.trace_at(next_start)
            if entered is not None:
                self.cursor = (entered, 0)
        runtime.recorder.observe(block, next_start,
                                 event_code(transition.event))
        if runtime.recorder.state == STATE_CREATING:
            cost.charge("recording", params.DBT_RECORD_PER_BLOCK)

    def run(self, program, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
        builder = DynamicBlockBuilder(self.runtime.block_index,
                                      program.entry, flavor=FLAVOR_STARDBT)
        consumed = [0, 0]

        def on_event(event):
            consumed[0] += event.instrs_dbt
            consumed[1] += event.instrs_pin
            transition = builder.feed(event)
            if transition is not None:
                self.handle(transition)

        result = Executor(program, max_instructions=max_instructions).run(
            on_event)
        self.handle(builder.flush(result.final_pc,
                                  result.instrs_dbt - consumed[0],
                                  result.instrs_pin - consumed[1]))
        self.trace_set = self.runtime.recorder.finish()
        self.cost = self.runtime.cost
        self.instrs_dbt = result.instrs_dbt
        self.instrs_pin = result.instrs_pin
        self.code_cache_bytes = self.runtime.code_cache.total_bytes
        return self


def stardbt_runtime(program, strategy="mret",
                    max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    return StarDBT(program, strategy=strategy,
                   limits=RecorderLimits(hot_threshold=10),
                   max_instructions=max_instructions)


def live_stardbt(program, strategy="mret"):
    """StarDBT's live run, through the :class:`LiveDBT` oracle."""
    return LiveDBT(stardbt_runtime(program, strategy)).run(program)


# ---------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------

def make_tool(kind, traces):
    """A fresh pintool: None, "empty:<walk>", "record", or
    "<config>:<walk>:<batch>", where the "object" walk is ``step()``
    under a ``TeaProfile``."""
    if kind is None:
        return None
    if kind == "record":
        return TeaRecordTool(strategy="mret",
                             limits=RecorderLimits(hot_threshold=10))
    if kind.startswith("empty:"):
        kind = "global_local:%s:None" % kind.split(":")[1]
        traces = None
    config, walk, batch = kind.split(":")
    return TeaReplayTool(trace_set=traces, config=CONFIGS[config](),
                         profile=TeaProfile() if walk == "object" else None,
                         batch_size=int(batch) if batch != "None" else None)


def outcome(result):
    """Everything observable about one MiniPin run."""
    tool = result.tool
    seen = {
        "fields": (result.instrs_dbt, result.instrs_pin, result.blocks,
                   result.halted),
        "cycles": result.cycles,
        "breakdown": list(result.cost.breakdown.items()),
    }
    if tool is not None:
        seen["stats"] = tool.stats.as_dict()
        seen["coverage"] = (tool.coverage,
                            tool.stats.coverage(pin_counting=False))
        if isinstance(tool, TeaRecordTool):
            seen["traces"] = trace_set_to_json(tool.trace_set)
    return seen


TOOLS = ([None, "record"]
         + ["empty:%s" % walk for walk in ("object", "compiled")]
         + ["%s:%s:%s" % (config, walk, batch)
            for config in CONFIGS for walk, batch in WALKS])


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("kind", TOOLS, ids=lambda kind: str(kind))
def test_pin_on_stream_matches_live_loop(name, kind):
    program, stream, traces = workload(name)
    live = live_pin(program, tool=make_tool(kind, traces))
    replayed = Pin(program, tool=make_tool(kind, traces),
                   stream=stream).run()
    assert outcome(replayed) == outcome(live)
    assert replayed.cycles == live.cycles


@pytest.mark.parametrize("name", WORKLOADS)
def test_stardbt_on_stream_matches_live_loop(name):
    program, stream, _traces = workload(name)
    for strategy in ("mret", "mfet", "ctt", "tt"):
        live = live_stardbt(program, strategy=strategy)
        replayed = StarDBT(program, strategy=strategy,
                           limits=RecorderLimits(hot_threshold=10),
                           stream=stream).run()
        assert trace_set_to_json(replayed.trace_set) == \
            trace_set_to_json(live.trace_set)
        assert replayed.cycles == live.cost.cycles
        assert list(replayed.cost.breakdown.items()) == \
            list(live.cost.breakdown.items())
        assert (replayed.blocks, replayed.covered_dbt, replayed.instrs_dbt,
                replayed.instrs_pin) == (live.blocks, live.covered_dbt,
                                         live.instrs_dbt, live.instrs_pin)
        assert replayed.code_cache.total_bytes == live.code_cache_bytes


@pytest.mark.parametrize("name", WORKLOADS)
def test_block_transitions_match_live_builder(name):
    program, stream, _traces = workload(name)
    live = live_transitions(program)
    replayed = list(stream.block_transitions(Pin(program).block_index,
                                             program.entry))
    assert len(replayed) == len(live) == stream.n_transitions

    def shape(transition):
        event = transition.event
        return (transition.block.key, transition.next_start,
                transition.instrs_dbt, transition.instrs_pin,
                None if event is None else (
                    event.pc, event.target, event.taken, event.kind,
                    event.instrs_dbt, event.instrs_pin))

    assert [shape(t) for t in replayed] == [shape(t) for t in live]


@pytest.mark.parametrize("name", WORKLOADS)
def test_native_on_stream_matches_live_run(name):
    program, stream, _traces = workload(name)
    result = Executor(program).run()
    native = run_native(program, stream=stream)
    assert native.cycles == 0.0 + result.instrs_pin * 1.0
    assert (native.instrs_dbt, native.instrs_pin, native.blocks,
            native.halted) == (result.instrs_dbt, result.instrs_pin,
                               result.edges + 1, result.halted)


def test_split_workload_really_splits():
    _program, stream, _traces = workload("splits")
    assert stream.n_splits >= 2 * 90
    mesa = workload("177.mesa@0.3")[1]
    assert mesa.n_splits > 0


# ---------------------------------------------------------------------
# the instruction budget
# ---------------------------------------------------------------------

def _limited(name):
    """``(program, traces, budget)``: a budget the run crosses about two
    thirds in — on a split event for the split program, so the stream
    ends in splits no block absorbed."""
    program, stream, traces = workload(name)
    budget = 2 * stream.instrs_dbt // 3
    if name == "splits":
        crossings = []
        total = [0]

        def on_event(event):
            total[0] += event.instrs_dbt
            if event.kind == "split" and total[0] > budget:
                crossings.append(total[0])

        Executor(program).run(on_event)
        budget = crossings[0] - 1
    return program, traces, budget


@pytest.mark.parametrize("name", ("164.gzip@0.15", "splits"))
@pytest.mark.parametrize("kind", [None, "record", "global_local:object:None",
                                  "global_local:compiled:100",
                                  "no_global_local:compiled:None"],
                         ids=lambda kind: str(kind))
def test_instruction_limit_matches_live_loop(name, kind):
    """Same exception, and the cost and tool state at the raise are
    those of the live run (full packed batches only, no finish)."""
    program, traces, budget = _limited(name)
    stream = ExecutionStream.record(program, max_instructions=budget)
    assert stream.exceeded and not stream.halted
    if name == "splits":
        assert stream.split_rows(stream.n_transitions)
    live_tool = make_tool(kind, traces)
    live = Pin(program, tool=live_tool, max_instructions=budget)
    with pytest.raises(InstructionLimitExceeded) as live_error:
        live_pin(program, tool=live_tool, max_instructions=budget, pin=live)
    tool = make_tool(kind, traces)
    pin = Pin(program, tool=tool, max_instructions=budget, stream=stream)
    with pytest.raises(InstructionLimitExceeded) as error:
        pin.run()
    assert str(error.value) == str(live_error.value)
    assert partial_state(pin, tool) == partial_state(live, live_tool)


def partial_state(pin, tool):
    state = {"cycles": pin.cost.cycles,
             "breakdown": list(pin.cost.breakdown.items())}
    if isinstance(tool, TeaRecordTool):
        state["stats"] = tool.online.stats.as_dict()
    elif tool is not None:
        state["stats"] = tool.replayer.stats.as_dict()
    return state


@pytest.mark.parametrize("name", ("164.gzip@0.15", "splits"))
def test_native_and_stardbt_raise_like_the_live_runs(name):
    program, _traces, budget = _limited(name)
    stream = ExecutionStream.record(program, max_instructions=budget)
    with pytest.raises(InstructionLimitExceeded):
        Executor(program, max_instructions=budget).run()
    with pytest.raises(InstructionLimitExceeded):
        run_native(program, max_instructions=budget, stream=stream)

    live = LiveDBT(stardbt_runtime(program, max_instructions=budget))
    with pytest.raises(InstructionLimitExceeded) as live_error:
        live.run(program, max_instructions=budget)
    replayed = stardbt_runtime(program, max_instructions=budget)
    replayed.stream = stream
    with pytest.raises(InstructionLimitExceeded) as error:
        replayed.run()
    assert str(error.value) == str(live_error.value)
    live_cost = live.runtime.cost
    assert (replayed.cost.cycles, list(replayed.cost.breakdown.items()),
            replayed._blocks, replayed._covered_dbt,
            len(replayed.recorder.traces)) == \
        (live_cost.cycles, list(live_cost.breakdown.items()), live.blocks,
         live.covered_dbt, len(live.runtime.recorder.traces))


def test_stream_budget_must_match():
    program, stream, _traces = workload("splits")
    with pytest.raises(ValueError):
        Pin(program, stream=stream, max_instructions=1000)
    with pytest.raises(ValueError):
        StarDBT(program, stream=stream, max_instructions=1000)
    with pytest.raises(ValueError):
        run_native(program, stream=stream, max_instructions=1000)


# ---------------------------------------------------------------------
# MiniPin's charge tape against the per-block oracle
# ---------------------------------------------------------------------

#: A loop of direct branches and then calls: the first indirect edge
#: (the first ``ret``) comes ~40 blocks in, so with a small batch
#: ``pin_indirect`` is created after the engine's own categories.
LATE_INDIRECT_SOURCE = """
main:
    mov ecx, 40
spin:
    dec ecx
    jnz spin
    mov ecx, 5
again:
    call helper
    dec ecx
    jnz again
    hlt
helper:
    add eax, 1
    ret
"""

#: The rates the tape is keyed on, moved off their defaults.
PERTURBED = {"PIN_BLOCK_STUB": 1.7, "PIN_INDIRECT_EXTRA": 9.3}


def tape_workload(name):
    """``(program, stream, traces, budget)``: a :func:`workload`, the
    late-indirect program, or ``"<workload>/limited"`` — its stream
    over a :func:`_limited` budget."""
    if name == "late_indirect":
        found = _CACHE.get(name)
        if found is None:
            program = assemble(LATE_INDIRECT_SOURCE)
            found = _CACHE[name] = (program, ExecutionStream.record(program),
                                    None)
        return found + (DEFAULT_MAX_INSTRUCTIONS,)
    if name.endswith("/limited"):
        program, traces, budget = _limited(name.split("/")[0])
        return (program, ExecutionStream.record(program, budget), traces,
                budget)
    return workload(name) + (DEFAULT_MAX_INSTRUCTIONS,)


def tape_tool(traces, batch):
    if batch is None:
        return None
    return TeaReplayTool(trace_set=traces, batch_size=batch)


def per_block_run(program, stream, tool, params, budget):
    """The packed-batch run with every Pin charge made by
    ``_EngineCharges.block``, one ``charge`` call per charge."""
    pin = Pin(program, tool=tool, cost_params=params,
              max_instructions=budget, stream=stream)
    charges = _EngineCharges(pin.cost, stream)
    blocks = stream.n_transitions
    lo = 0
    if tool is not None:
        tool.attach(pin)
        batch = tool.packed_batch
        full = blocks - blocks % batch if stream.exceeded else blocks
        for lo in range(0, full, batch):
            hi = min(lo + batch, blocks)
            for index in range(lo, hi):
                charges.block(index)
            tool.on_packed(PackedBatch(stream.transitions[3 * lo:3 * hi]))
        lo = full
    for index in range(lo, blocks):
        charges.block(index)
    if stream.exceeded:
        charges.splits(blocks)
    elif tool is not None:
        tool.on_finish()
    return pin, stream.exceeded


def charged(pin, raised):
    cost = pin.cost
    return repr(cost.cycles), list(cost.breakdown.items()), raised


@pytest.mark.parametrize("name", ("splits", "177.mesa@0.3", "164.gzip@0.15",
                                  "late_indirect", "splits/limited",
                                  "164.gzip@0.15/limited"))
@pytest.mark.parametrize("batch", (None, 1, 7, 4096),
                         ids=lambda batch: ("no-tool" if batch is None
                                            else "batch=%d" % batch))
@pytest.mark.parametrize("perturbed", (False, True),
                         ids=("default", "perturbed"))
def test_charge_tape_matches_per_block_charges(name, batch, perturbed):
    """Bit for bit: ``repr(cycles)`` and the breakdown with its key
    order, also across merged splits, over budget and with other
    rates."""
    program, stream, traces, budget = tape_workload(name)
    stream = ExecutionStream.from_buffer(stream.to_bytes())  # no tape yet
    params = CostParameters(**PERTURBED) if perturbed else None
    want = charged(*per_block_run(program, stream, tape_tool(traces, batch),
                                  params, budget))
    pin = Pin(program, tool=tape_tool(traces, batch), cost_params=params,
              max_instructions=budget, stream=stream)
    raised = False
    try:
        pin.run()
    except InstructionLimitExceeded:
        raised = True
    assert raised == stream.exceeded == name.endswith("/limited")
    assert charged(pin, raised) == want


def test_late_indirect_category_follows_the_engines():
    program, stream, _traces, _budget = tape_workload("late_indirect")
    result = Pin(program, tool=tape_tool(None, 7), stream=stream).run()
    keys = list(result.cost.breakdown)
    assert keys.index("callback") < keys.index("pin_indirect")
    assert keys[:2] == ["pin_dispatch", "pin_translation"]


def test_threads_share_one_stream():
    program, stream, traces, _budget = tape_workload("177.mesa@0.3")
    stream = ExecutionStream.from_buffer(stream.to_bytes())
    want = charged(*per_block_run(program, stream, tape_tool(traces, 100),
                                  None, DEFAULT_MAX_INSTRUCTIONS))
    start = threading.Barrier(8)
    seen = []

    def replay():
        tool = tape_tool(traces, 100)
        start.wait()
        seen.append(charged(Pin(program, tool=tool, stream=stream).run(),
                            False))

    threads = [threading.Thread(target=replay) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [want] * 8


def test_stream_holds_one_tape(monkeypatch):
    program, stream, traces, _budget = tape_workload("splits")
    stream = ExecutionStream.from_buffer(stream.to_bytes())
    built = []

    class CountedTape(pin_module.ChargeTape):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(pin_module, "ChargeTape", CountedTape)

    def run(batch, params=None):
        Pin(program, tool=tape_tool(traces, batch), cost_params=params,
            stream=stream).run()
        return len(built)

    assert run(100) == 1
    assert run(100) == 1  # same key: no new tape
    assert run(None) == 2  # a run without a tool folds the default batch
    assert run(None) == 2
    assert run(None, CostParameters(**PERTURBED)) == 3
    assert run(None) == 4  # the perturbed tape replaced the default one


# ---------------------------------------------------------------------
# recording, sidecar bytes, interpreter runs
# ---------------------------------------------------------------------

@pytest.mark.parametrize("name", WORKLOADS)
def test_sidecar_round_trip_replays_identically(name):
    program, stream, traces = workload(name)
    data = stream.to_bytes()
    assert data == ExecutionStream.record(program).to_bytes()  # canonical
    assert check_stream_bytes(data, key=stream.key,
                              program_digest=program.content_digest()) == []
    loaded = ExecutionStream.from_buffer(data)
    assert loaded.to_bytes() == data
    for kind in ("global_local:compiled:None", "global_local:object:None"):
        first = Pin(program, tool=make_tool(kind, traces),
                    stream=stream).run()
        second = Pin(program, tool=make_tool(kind, traces),
                     stream=loaded).run()
        assert outcome(first) == outcome(second)


def test_exceeded_stream_round_trips():
    program, _traces, budget = _limited("splits")
    stream = ExecutionStream.record(program, max_instructions=budget)
    data = stream.to_bytes()
    assert check_stream_bytes(data, key=stream.key) == []
    loaded = ExecutionStream.from_buffer(data)
    assert loaded.exceeded and loaded.to_bytes() == data


#: The engines that take a recorded stream, each run to completion.
STREAM_ENGINES = {
    "Pin": lambda program, stream: Pin(program, stream=stream).run().cycles,
    "run_native": lambda program, stream: run_native(
        program, stream=stream).cycles,
    "StarDBT": lambda program, stream: StarDBT(
        program, stream=stream).run().cycles,
}


@pytest.mark.parametrize("engine", STREAM_ENGINES)
def test_engines_reject_another_programs_stream(engine):
    gzip = load_benchmark("164.gzip", scale=0.2).program
    swim = load_benchmark("171.swim", scale=0.2).program
    stream = ExecutionStream.record(gzip)
    with pytest.raises(ValueError) as raised:
        STREAM_ENGINES[engine](swim, stream)
    assert gzip.content_digest() in str(raised.value)
    assert swim.content_digest() in str(raised.value)


@pytest.mark.parametrize("engine", STREAM_ENGINES)
def test_engines_accept_an_equal_programs_stream(engine):
    """Streams match by content digest, not by ``Program`` identity."""
    program = load_benchmark("164.gzip", scale=0.2).program
    twin = load_benchmark("164.gzip", scale=0.2).program
    assert twin is not program
    stream = ExecutionStream.record(program)
    run = STREAM_ENGINES[engine]
    assert repr(run(twin, stream)) == repr(run(program, None))


def test_one_interpreter_run_per_stream():
    program, _stream, traces = workload("splits")
    obs = Observability()
    stream = ExecutionStream.record(program, obs=obs)
    Pin(program, tool=make_tool("global_local:compiled:None", traces),
        obs=obs, stream=stream).run()
    Pin(program, obs=obs, stream=stream).run()
    StarDBT(program, stream=stream).run()
    run_native(program, stream=stream)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["exec.runs"] == 1
    assert counters["pin.runs"] == 2
    # Without a stream, Pin records its own: one more interpreter run.
    Pin(program, obs=obs).run()
    assert obs.metrics.snapshot()["counters"]["exec.runs"] == 2


def test_budget_exceeded_run_is_counted():
    """A run over budget flushes its totals up to the crossing event."""
    program = load_benchmark("181.mcf", scale=0.25).program
    obs = Observability()
    stream = ExecutionStream.record(program, max_instructions=5000, obs=obs)
    assert stream.exceeded
    snapshot = obs.metrics.snapshot()
    counters = snapshot["counters"]
    assert snapshot["timers"]["exec.run"]["count"] == counters["exec.runs"] == 1
    assert counters["exec.instructions_dbt"] == stream.instrs_dbt > 5000
    assert counters["exec.instructions_pin"] == stream.instrs_pin
    assert counters["exec.edges"] == stream.edges


def test_program_digest_ignores_labels_but_not_code():
    program = assemble(SPLIT_SOURCE)
    renamed = assemble(SPLIT_SOURCE.replace("helper", "callee"))
    changed = assemble(SPLIT_SOURCE.replace("mov ebp, 90", "mov ebp, 91"))
    assert program.content_digest() == renamed.content_digest()
    assert program.content_digest() != changed.content_digest()
