"""The MiniPin engine.

Replays a program's recorded run while (a) charging Pin's own overheads
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

These overheads depend only on the recorded run, so they are not
recomputed per run: a :class:`ChargeTape`, built once per stream and
cached on it, lists them per packed batch, and each run folds it.  The
tape also holds each batch as the packed-batch tool receives it, a
:class:`~repro.core.compiled.PackedBatch`, so replays do not rebuild
those either.
"""

import functools
import operator
import weakref
from bisect import bisect_left
from itertools import compress, repeat

from repro.cfg.basic_block import BlockIndex
from repro.core.compiled import PackedBatch
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
from repro.pin.packed import DEFAULT_PACKED_BATCH

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
    """MiniPin's own per-event charges for one block at a time.

    Per Pin-flavour event the live engine charged, in this order:
    ``PIN_BLOCK_STUB``; ``PIN_TRANSLATION_PER_INSTR`` times the event's
    instructions when its PC was new; ``PIN_INDIRECT_EXTRA`` for an
    indirect edge; then the event's Pin-counted instructions.  The
    terminal block charges only its residual instructions.
    :attr:`CostModel.cycles <repro.dbt.cost.CostModel.cycles>` is one
    float accumulated in call order and the stub (1.6) is inexact, so
    the charges are added one at a time in exactly that order — never
    pre-summed, never with ``math.fsum`` (or ``sum()``, compensated on
    Python >= 3.12).  Per-transition tools are charged through
    :meth:`block`, one ``charge`` call per charge; it is the oracle the
    :class:`ChargeTape` is tested against, and the tape lists the
    charges of merged-split rows through it.
    """

    __slots__ = ("cost", "stream", "stub", "translate", "indirect")

    def __init__(self, cost, stream):
        params = cost.params
        self.cost = cost
        self.stream = stream
        self.stub = params.PIN_BLOCK_STUB
        self.translate = params.PIN_TRANSLATION_PER_INSTR
        self.indirect = params.PIN_INDIRECT_EXTRA

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


#: Pin's cost categories, in the order one plain row charges them.
_SLOTS = ("pin_dispatch", "pin_translation", "pin_indirect", "instructions")


def _row_table(charges):
    """``bytes.translate`` table: a flags byte -> 1 when ``charges(code)``,
    else 0."""
    return bytes(1 if charges(code) else 0 for code in range(256))


def _is_plain(code):
    return not code & (FLAG_FINAL | FLAG_SPLITS)


#: Per slot of :data:`_SLOTS`, which plain rows charge it.  Rows with
#: merged splits charge nothing here: :meth:`_EngineCharges.block` lists
#: theirs.  The terminal row charges only its instructions.
_SLOT_TABLES = (
    _row_table(_is_plain),
    _row_table(lambda code: _is_plain(code) and code & FLAG_FIRST),
    _row_table(lambda code: _is_plain(code) and code & FLAG_INDIRECT),
    _row_table(lambda code: not code & FLAG_SPLITS),
)
_SPLIT_TABLE = _row_table(lambda code: code & FLAG_SPLITS)


def _marked(marks, lo, hi):
    """The indices ``lo <= index < hi`` where ``marks[index]`` is 1."""
    found = []
    index = marks.find(1, lo, hi)
    while index >= 0:
        found.append(index)
        index = marks.find(1, index + 1, hi)
    return found


class _Amounts(dict):
    """``count -> count * rate``, one float object per distinct count."""

    __slots__ = ("rate",)

    def __init__(self, rate):
        super().__init__()
        self.rate = rate

    def __missing__(self, count):
        amount = self[count] = count * self.rate
        return amount


class _TapeCost(CostModel):
    """A cost model that also lists each charge in :attr:`charges`."""

    __slots__ = ("charges",)

    def charge(self, category, cycles):
        self.charges.append(cycles)
        CostModel.charge(self, category, cycles)


class ChargeTape:
    """MiniPin's charges and packed batches on one stream, built once
    and used by every run.

    Pin's charges depend only on the recorded run, four cost parameters
    and the tool's packed batch size, so one tape serves every run with
    those: :class:`Pin` keeps it on the stream
    (:meth:`ExecutionStream.charge_tape
    <repro.cpu.stream.ExecutionStream.charge_tape>`), keyed on those
    five, and a run with another key replaces it.  A tape has one
    segment per packed batch the tool receives, plus,
    for a run that exceeded its budget, an undelivered tail: the blocks
    after the last full batch and the split events after the last block.
    Per segment ``k``:

    - ``cycles[k]`` lists the segment's charges in live order (see
      :class:`_EngineCharges`), one float object per distinct amount;
    - ``categories[k]`` maps each Pin category charged so far to its
      running value at the segment's end, keyed in first-charge order;
    - ``batches[k]`` (delivered segments only, so no entry for the
      tail) is the :class:`~repro.core.compiled.PackedBatch` the tool
      receives: a zero-copy slice of the stream's ``transitions`` lane,
      its ``next_start`` list and its instruction totals.  One dict
      interns the PCs of every batch, so the lists of a tape share one
      int object per distinct PC.

    A run adds ``cycles[k]`` to ``CostModel.cycles`` with
    ``functools.reduce(operator.add, ...)`` — the same IEEE additions,
    in the same order, as one ``charge`` per charge — and writes
    ``categories[k]`` into ``breakdown`` before the tool sees batch
    ``k``.  The tool's replay engine charges only its own categories,
    so writing absolute values keeps both the values and the key order.

    The build runs at C speed over the lanes, one segment at a time:
    per-block slot masks from ``bytes.translate``, a repeated-list
    template of the four slot charges, and ``itertools.compress``.
    Blocks with merged splits are listed through
    :meth:`_EngineCharges.block`.
    """

    __slots__ = ("cycles", "categories", "batches")

    def __init__(self, stream, params, batch):
        self.cycles = []
        self.categories = []
        self.batches = []
        seen = {}
        rows = stream.n_transitions
        flags = bytes(stream.flags)
        transitions = stream.transitions
        masks = [flags.translate(table) for table in _SLOT_TABLES]
        stub = params.PIN_BLOCK_STUB
        indirect = params.PIN_INDIRECT_EXTRA
        translate = params.PIN_TRANSLATION_PER_INSTR
        amount = _Amounts(params.NATIVE_INSTRUCTION).__getitem__
        cost = _TapeCost(params)
        running = cost.breakdown
        charges = _EngineCharges(cost, stream)

        def plain(lo, hi):
            # The charges of blocks lo .. hi - 1, none of which has
            # merged splits; their categories' running values move on.
            instructions = list(map(amount, transitions[3 * lo + 2:3 * hi:3]))
            template = [stub, None, indirect, None] * (hi - lo)
            template[3::4] = instructions
            translations = []
            for row in _marked(masks[1], lo, hi):
                translations.append(translate * transitions[3 * row + 1])
                template[4 * (row - lo) + 1] = translations[-1]
            mask = bytearray(4 * (hi - lo))
            for slot in range(4):
                mask[slot::4] = masks[slot][lo:hi]
            firsts = []
            for slot, amounts in enumerate((
                    repeat(stub, masks[0].count(1, lo, hi)), translations,
                    repeat(indirect, masks[2].count(1, lo, hi)),
                    instructions)):
                first = masks[slot].find(1, lo, hi)
                if first >= 0:
                    firsts.append((4 * first + slot, slot, amounts))
            for _position, slot, amounts in sorted(firsts):
                category = _SLOTS[slot]
                running[category] = functools.reduce(
                    operator.add, amounts, running.get(category, 0.0))
            return compress(template, mask)

        split = _marked(flags.translate(_SPLIT_TABLE), 0, rows)
        full = rows - rows % batch if stream.exceeded else rows
        bounds = [(lo, min(lo + batch, rows)) for lo in range(0, full, batch)]
        if stream.exceeded:
            bounds.append((full, rows))
        for lo, hi in bounds[:len(bounds) - stream.exceeded]:
            self.batches.append(
                PackedBatch(transitions[3 * lo:3 * hi], seen))
        for lo, hi in bounds:
            out = cost.charges = []
            for index in split[bisect_left(split, lo):bisect_left(split, hi)]:
                out += plain(lo, index)
                charges.block(index)
                lo = index + 1
            out += plain(lo, hi)
            self.cycles.append(out)
            self.categories.append(dict(running))
        if stream.exceeded:
            # The trailing splits close the tail segment.
            charges.splits(rows)
            self.categories[-1] = dict(running)


class Pin:
    """The engine: one instance per program run.

    ``stream`` is the program's recorded
    :class:`~repro.cpu.stream.ExecutionStream` (same program content
    digest and ``max_instructions``, else ``ValueError``); when omitted,
    :meth:`run` records one first — the one interpreter run.  Pass one
    stream to every engine that runs the same program to execute it
    once.

    A run without a tool, or with a packed-batch tool, folds the
    stream's :class:`ChargeTape` for its cost parameters and batch size,
    built by the first such run and reused by the next; a packed-batch
    tool receives the tape's batches.  A per-transition tool is charged
    block by block, before each transition it receives.

    ``obs`` (optional :class:`~repro.obs.Observability`) is shared with
    the executor and exposed to the attached pintool, so one registry
    holds the whole stack's metrics; engine totals are flushed into
    ``pin.*`` counters at the end of the run.

    An attached tool refers back to its engine (``Pintool.pin``), so
    from :meth:`run` on the engine holds its tool weakly: ``tool``
    answers for as long as the caller keeps the tool (or the
    :class:`PinResult` carrying it), and a finished engine and tool are
    freed by reference counting alone, without the cycle collector.
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
        self.stream = matching(stream, program, max_instructions)

    @property
    def tool(self):
        tool = self._tool
        return tool() if type(tool) is weakref.ref else tool

    @tool.setter
    def tool(self, tool):
        self._tool = tool

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
            self._tool = weakref.ref(tool)
        cost = self.cost
        if tool is not None and not tool.packed_batch:
            charges = _EngineCharges(cost, stream)
            deliver = tool.on_transition
            for index, transition in enumerate(stream.block_transitions(
                    self.block_index, self.program.entry)):
                charges.block(index)
                deliver(transition)
            if stream.exceeded:
                charges.splits(stream.n_transitions)
        else:
            # Packed-batch tools see the batches a live run would hand
            # over: full ones as they fill, the remainder at the end; a
            # run over its budget delivers no partial batch.  A run
            # without a tool folds the same segments.
            batch = tool.packed_batch if tool is not None \
                else DEFAULT_PACKED_BATCH
            params = cost.params
            key = (params.PIN_BLOCK_STUB, params.PIN_TRANSLATION_PER_INSTR,
                   params.PIN_INDIRECT_EXTRA, params.NATIVE_INSTRUCTION,
                   batch)
            tape = stream.charge_tape(
                key, lambda: ChargeTape(stream, params, batch))
            breakdown = cost.breakdown
            delivered = len(tape.batches) if tool is not None else 0
            for segment, charges in enumerate(tape.cycles):
                cost.cycles = functools.reduce(operator.add, charges,
                                               cost.cycles)
                breakdown.update(tape.categories[segment])
                if segment < delivered:
                    tool.on_packed(tape.batches[segment])
        if stream.exceeded:
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
    stream = matching(stream, program, max_instructions)
    if stream is None:
        stream = ExecutionStream.record(program, max_instructions)
    return PinResult(
        native_cost(stream, cost_params), stream.instrs_dbt,
        stream.instrs_pin, stream.edges + 1, None, stream.halted,
    )
