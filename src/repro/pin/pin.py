"""The MiniPin engine.

Runs a program on the interpreter while (a) charging Pin's own overheads
per the cost model and (b) delivering StarDBT-flavour block transitions
to the attached pintool.  Engine overheads, per the cost-model docs:

- ``PIN_BLOCK_STUB`` per *Pin-flavour* dynamic block (splits at
  cpuid/REP), modelling code-cache block dispatch;
- ``PIN_TRANSLATION_PER_INSTR`` the first time each block is executed;
- ``PIN_INDIRECT_EXTRA`` per indirect jump/call/return edge.

Instruction totals are exposed under both counting semantics; coverage
figures computed by TEA tools use Pin counting (REP iterations counted),
which is what makes our Table 2/3 coverages differ slightly from the
DBT's — the Section 4.1 effect.
"""

import functools
import operator
from bisect import bisect_left
from itertools import repeat

from repro.cfg.basic_block import BlockIndex
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS
from repro.cpu.stream import (
    FLAG_FINAL,
    FLAG_FIRST,
    FLAG_INDIRECT,
    FLAG_SPLITS,
    ExecutionStream,
    matching,
)
from repro.dbt.cost import CostModel, CostParameters

class PinResult:
    """Outcome of a MiniPin run."""

    __slots__ = ("cost", "instrs_dbt", "instrs_pin", "blocks", "tool", "halted")

    def __init__(self, cost, instrs_dbt, instrs_pin, blocks, tool, halted):
        self.cost = cost
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin
        self.blocks = blocks
        self.tool = tool
        self.halted = halted

    @property
    def cycles(self):
        return self.cost.cycles

    @property
    def megacycles(self):
        return self.cost.megacycles

    def slowdown(self, native_cycles=None):
        """Slowdown versus native execution of the same run."""
        baseline = (
            native_cycles
            if native_cycles is not None
            else self.instrs_pin * self.cost.params.NATIVE_INSTRUCTION
        )
        return self.cycles / baseline if baseline else 0.0

    def __repr__(self):
        return "<PinResult %.1f Mcycles, %d blocks>" % (
            self.megacycles,
            self.blocks,
        )


class _EngineCharges:
    """MiniPin's own per-event charges, applied from a recorded stream.

    Per Pin-flavour event the live engine charged, in this order:
    ``PIN_BLOCK_STUB``; ``PIN_TRANSLATION_PER_INSTR`` times the event's
    instructions when its PC was new; ``PIN_INDIRECT_EXTRA`` for an
    indirect edge; then the event's Pin-counted instructions.  The
    terminal block charges only its residual instructions.
    :attr:`CostModel.cycles <repro.dbt.cost.CostModel.cycles>` is one
    float accumulated in call order and the stub (1.6) is inexact, so
    the charges are added one at a time in exactly that order — never
    pre-summed, never with ``sum()`` (compensated on Python >= 3.12) or
    ``math.fsum``.  :meth:`through` does so in bulk, one loop over the
    lanes for the total and the per-category sums, and
    ``functools.reduce`` for the constant charges.  Blocks that create
    a cost category or carry extra events
    (:meth:`ExecutionStream.slow_transitions`) go through :meth:`block`,
    one ``charge`` call per charge.
    """

    __slots__ = ("cost", "stream", "stub", "translate", "indirect", "rate",
                 "slow")

    def __init__(self, cost, stream):
        params = cost.params
        self.cost = cost
        self.stream = stream
        self.stub = params.PIN_BLOCK_STUB
        self.translate = params.PIN_TRANSLATION_PER_INSTR
        self.indirect = params.PIN_INDIRECT_EXTRA
        self.rate = params.NATIVE_INSTRUCTION
        self.slow = stream.slow_transitions()

    def splits(self, index):
        """Charge the split events merged into block ``index``; returns
        their ``(instrs_dbt, instrs_pin)`` totals."""
        cost = self.cost
        merged_dbt = merged_pin = 0
        for instrs_dbt, instrs_pin, first in self.stream.split_rows(index):
            cost.charge("pin_dispatch", self.stub)
            if first:
                cost.charge("pin_translation", self.translate * instrs_dbt)
            cost.charge_instructions(instrs_pin)
            merged_dbt += instrs_dbt
            merged_pin += instrs_pin
        return merged_dbt, merged_pin

    def block(self, index):
        """Charge every event that completed block ``index``."""
        cost = self.cost
        stream = self.stream
        code = stream.flags[index]
        instrs_dbt = stream.transitions[3 * index + 1]
        instrs_pin = stream.transitions[3 * index + 2]
        if code & FLAG_SPLITS:
            merged_dbt, merged_pin = self.splits(index)
            instrs_dbt -= merged_dbt
            instrs_pin -= merged_pin
        if code & FLAG_FINAL:
            cost.charge_instructions(instrs_pin)
            return
        cost.charge("pin_dispatch", self.stub)
        if code & FLAG_FIRST:
            cost.charge("pin_translation", self.translate * instrs_dbt)
        if code & FLAG_INDIRECT:
            cost.charge("pin_indirect", self.indirect)
        cost.charge_instructions(instrs_pin)

    def through(self, lo, hi):
        """Charge every event that completed blocks ``lo`` .. ``hi - 1``."""
        slow = self.slow
        at = lo
        for index in slow[bisect_left(slow, lo):bisect_left(slow, hi)]:
            if index > at:
                self._bulk(at, index)
            self.block(index)
            at = index + 1
        if hi > at:
            self._bulk(at, hi)

    def _bulk(self, lo, hi):
        # Blocks here end in one event each, none of them new to Pin,
        # and every category they charge already exists.
        cost = self.cost
        breakdown = cost.breakdown
        stub = self.stub
        indirect = self.indirect
        rate = self.rate
        cycles = cost.cycles
        instructions = breakdown["instructions"]
        indirects = 0
        for code, count in zip(self.stream.flags[lo:hi],
                               self.stream.transitions[3 * lo + 2:3 * hi:3]):
            cycles += stub
            if code & FLAG_INDIRECT:
                cycles += indirect
                indirects += 1
            count = count * rate
            cycles += count
            instructions += count
        cost.cycles = cycles
        breakdown["instructions"] = instructions
        breakdown["pin_dispatch"] = functools.reduce(
            operator.add, repeat(stub, hi - lo), breakdown["pin_dispatch"])
        if indirects:
            breakdown["pin_indirect"] = functools.reduce(
                operator.add, repeat(indirect, indirects),
                breakdown["pin_indirect"])


class Pin:
    """The engine: one instance per program run.

    ``stream`` is the program's recorded
    :class:`~repro.cpu.stream.ExecutionStream` (same
    ``max_instructions``); when omitted, :meth:`run` records one first
    — the one interpreter run.  Pass one stream to every engine that
    runs the same program to execute it once.

    ``obs`` (optional :class:`~repro.obs.Observability`) is shared with
    the executor and exposed to the attached pintool, so one registry
    holds the whole stack's metrics; engine totals are flushed into
    ``pin.*`` counters at the end of the run.
    """

    def __init__(self, program, tool=None, cost_params=None,
                 max_instructions=DEFAULT_MAX_INSTRUCTIONS, obs=None,
                 stream=None):
        self.program = program
        self.tool = tool
        self.cost = CostModel(cost_params or CostParameters())
        self.block_index = BlockIndex(program)
        self.max_instructions = max_instructions
        self.obs = obs
        self.stream = matching(stream, max_instructions)

    def run(self):
        """Run under instrumentation; returns :class:`PinResult`."""
        obs = self.obs
        if obs is None:
            return self._run()
        with obs.metrics.timer("pin.run"):
            result = self._run()
        metrics = obs.metrics
        metrics.counter("pin.runs").inc()
        metrics.counter("pin.blocks").inc(result.blocks)
        metrics.counter("pin.translated_blocks").inc(self.stream.translated)
        metrics.counter("pin.instructions_dbt").inc(result.instrs_dbt)
        metrics.counter("pin.instructions_pin").inc(result.instrs_pin)
        return result

    def _run(self):
        stream = self.stream
        if stream is None:
            stream = self.stream = ExecutionStream.record(
                self.program, self.max_instructions, obs=self.obs)
        tool = self.tool
        if tool is not None:
            tool.attach(self)
        charges = _EngineCharges(self.cost, stream)
        blocks = stream.n_transitions
        batch = tool.packed_batch if tool is not None else None
        if tool is None:
            charges.through(0, blocks)
        elif batch:
            # Packed-batch tools see exactly the live encoder's batches:
            # full ones as they fill, the remainder at the end.
            view = stream.transitions
            full = blocks - blocks % batch if stream.exceeded else blocks
            for lo in range(0, full, batch):
                hi = min(lo + batch, blocks)
                charges.through(lo, hi)
                tool.on_packed(view[3 * lo:3 * hi])
            charges.through(full, blocks)
        else:
            deliver = tool.on_transition
            block = charges.block
            for index, transition in enumerate(stream.block_transitions(
                    self.block_index, self.program.entry)):
                block(index)
                deliver(transition)
        if stream.exceeded:
            charges.splits(blocks)
            raise stream.limit_error()
        if tool is not None:
            tool.on_finish()
        if self.obs is not None:
            self.obs.metrics.counter("pin.indirect_edges").inc(
                stream.indirects)
        return PinResult(
            self.cost,
            stream.instrs_dbt,
            stream.instrs_pin,
            stream.edges + 1,
            tool,
            stream.halted,
        )


def native_cost(stream, cost_params=None):
    """The native baseline's :class:`~repro.dbt.cost.CostModel` from a
    recorded stream: its Pin-counted instructions, one charge."""
    if stream.exceeded:
        raise stream.limit_error()
    cost = CostModel(cost_params or CostParameters())
    cost.charge_instructions(stream.instrs_pin)
    return cost


def run_native(program, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
               cost_params=None, stream=None):
    """Native baseline: the program alone, one cycle per instruction.

    Returns a :class:`PinResult`-shaped object so harness code can treat
    every configuration uniformly.  ``stream`` is the program's recorded
    run, as for :class:`Pin`; one is recorded when omitted.
    """
    stream = matching(stream, max_instructions)
    if stream is None:
        stream = ExecutionStream.record(program, max_instructions)
    return PinResult(
        native_cost(stream, cost_params), stream.instrs_dbt,
        stream.instrs_pin, stream.edges + 1, None, stream.halted,
    )
