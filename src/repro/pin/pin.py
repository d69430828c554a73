"""The MiniPin engine.

Replays a program's recorded run while (a) charging Pin's own overheads
per the cost model and (b) handing the attached pintool the run's
StarDBT-flavour block transitions in packed batches.  Engine overheads,
per the cost-model docs:

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
cached on it, counts them per chunk of blocks of each packed batch, and
each run prices the chunks it can and folds the rest, listing a
chunk's charges from the stream the first time one is folded.  The
tape also holds each batch as the tool receives it, a
:class:`~repro.core.compiled.PackedBatch`, so runs do not rebuild those
either.
"""

import weakref
from bisect import bisect_left
from collections import deque
from itertools import accumulate, compress, repeat
from math import fmod, frexp, inf, ldexp

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


def _fold(total, amounts):
    """``total`` plus each of ``amounts`` from the left, at C speed: the
    same ``PyNumber_Add`` calls as ``functools.reduce(operator.add,
    amounts, total)``, without its call of ``operator.add`` per item.
    Never ``sum()`` (compensated from Python 3.12) nor ``math.fsum``.

    This is the reference :meth:`ChargeTape.fold` must equal, and what
    it falls back to for a chunk it cannot price."""
    return deque(accumulate(amounts, initial=total), maxlen=1)[0]


#: Rows per chunk of a :class:`ChargeTape` segment: ~500 charges, a
#: few thousand cycles, so a chunk rarely crosses a binade once the
#: total is past a few thousand.
_CHUNK_ROWS = 256

#: A segment of fewer blocks (a small packed batch) has no chunks and
#: is always folded: its few charges cost less to add one by one than
#: to summarise and price.
_PRICED_ROWS = 32

#: Below this every integer is a double, and a multiple of the spacing
#: of the doubles in any binade a run's total can be in when priced.
_EXACT = 2.0 ** 53


def _whole(amount):
    """``amount`` as an ``int`` when it is a whole number in
    ``[0, 2**53)``, else ``None`` (also for NaN and infinities)."""
    if 0 <= amount < _EXACT and amount == int(amount):
        return int(amount)
    return None


def _summary(amounts):
    """``(whole, pairs)`` of charges one by one: the exact sum of the
    whole ones, and ``(amount, count)`` per other amount; ``pairs`` is
    ``None`` when an amount is negative or not finite."""
    whole = 0
    counts = {}
    for amount in amounts:
        amount_whole = _whole(amount)
        if amount_whole is not None:
            whole += amount_whole
        elif 0 <= amount < inf:
            counts[amount] = counts.get(amount, 0) + 1
        else:
            return whole, None
    return whole, list(counts.items())


def _priced(total, whole, pairs):
    """``total`` plus a chunk's charges, priced per binade, or ``None``
    when that is not exact.

    The chunk's charges are ``whole`` (an ``int``, the exact sum of its
    whole-number charges) plus, per ``(amount, count)`` of ``pairs``,
    ``count`` charges of the non-integral ``amount``; all are >= 0.
    While a running total stays in the binade ``[top / 2, top)``, every
    double it takes is a multiple of ``unit = top * 2**-53``, so adding
    an amount moves it by that amount rounded to a multiple of ``unit``,
    whatever the total.  Integers are such multiples (``top <=
    2**53``).  The rounding is only ambiguous on a tie (the amount sits
    half way between two multiples), where round-half-even looks at the
    total.  So unless ``total`` is below 1.0 or not below ``2**53``, an
    amount ties, or the end leaves the binade, the left-to-right sum is
    ``total + whole + sum(count * rounded(amount))``, and every one of
    those operations is exact: each partial result is a multiple of
    ``unit`` in ``[total, top)``.  An operation that rounds can only
    round to ``top`` or above, which the last check refuses.

    :meth:`ChargeTape.fold` calls this per chunk with the chunk's
    summary, and on ``None`` folds the chunk's charges, listed from the
    stream's lanes by :func:`_chunk_charges`.
    """
    if not 1.0 <= total < _EXACT:
        return None
    top = ldexp(1.0, frexp(total)[1])
    unit = top * 2.0 ** -53
    total += whole
    for amount, count in pairs:
        below = fmod(amount, unit)
        if below + below == unit:
            return None
        if below + below > unit:
            below -= unit
        total += count * (amount - below)
    return total if total < top else None


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


def _charge_block(cost, stream, index):
    """Charge to ``cost`` MiniPin's own charges for every event that
    completed block ``index`` of ``stream``.

    Per Pin-flavour event the live engine charged, in this order:
    ``PIN_BLOCK_STUB``; ``PIN_TRANSLATION_PER_INSTR`` times the event's
    instructions when its PC was new; ``PIN_INDIRECT_EXTRA`` for an
    indirect edge; then the event's Pin-counted instructions.  The
    terminal block charges only its residual instructions.
    :attr:`CostModel.cycles <repro.dbt.cost.CostModel.cycles>` is one
    float accumulated in call order and the stub (1.6) is inexact, so
    the charges are added one at a time in exactly that order — never
    pre-summed, never with ``math.fsum`` (or ``sum()``, compensated on
    Python >= 3.12).  This makes one ``charge`` call per charge; it is
    the oracle the :class:`ChargeTape` is tested against, and the tape
    charges merged-split rows through it, in its build and when it
    lists a chunk's charges (:func:`_chunk_charges`).
    """
    params = cost.params
    code = stream.flags[index]
    instrs_dbt = stream.transitions[3 * index + 1]
    instrs_pin = stream.transitions[3 * index + 2]
    if code & FLAG_SPLITS:
        merged_dbt, merged_pin = _charge_splits(cost, stream, index)
        instrs_dbt -= merged_dbt
        instrs_pin -= merged_pin
    if code & FLAG_FINAL:
        cost.charge_instructions(instrs_pin)
        return
    cost.charge("pin_dispatch", params.PIN_BLOCK_STUB)
    if code & FLAG_FIRST:
        cost.charge("pin_translation",
                    params.PIN_TRANSLATION_PER_INSTR * instrs_dbt)
    if code & FLAG_INDIRECT:
        cost.charge("pin_indirect", params.PIN_INDIRECT_EXTRA)
    cost.charge_instructions(instrs_pin)


def _charge_splits(cost, stream, index):
    """Charge the split events merged into block ``index`` (or after the
    last block); returns their ``(instrs_dbt, instrs_pin)`` totals."""
    params = cost.params
    merged_dbt = merged_pin = 0
    for instrs_dbt, instrs_pin, first in stream.split_rows(index):
        cost.charge("pin_dispatch", params.PIN_BLOCK_STUB)
        if first:
            cost.charge("pin_translation",
                        params.PIN_TRANSLATION_PER_INSTR * instrs_dbt)
        cost.charge_instructions(instrs_pin)
        merged_dbt += instrs_dbt
        merged_pin += instrs_pin
    return merged_dbt, merged_pin


#: Pin's cost categories, in the order one plain row charges them.
_SLOTS = ("pin_dispatch", "pin_translation", "pin_indirect", "instructions")


def _row_table(charges):
    """``bytes.translate`` table: a flags byte -> 1 when ``charges(code)``,
    else 0."""
    return bytes(1 if charges(code) else 0 for code in range(256))


def _is_plain(code):
    return not code & (FLAG_FINAL | FLAG_SPLITS)


#: Per slot of :data:`_SLOTS`, which plain rows charge it.  Rows with
#: merged splits charge nothing here: :func:`_charge_block` lists
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


#: The cost parameters a :class:`ChargeTape` charges, as its key lists
#: them.
_RATES = ("PIN_BLOCK_STUB", "PIN_TRANSLATION_PER_INSTR",
          "PIN_INDIRECT_EXTRA", "NATIVE_INSTRUCTION")


def _chunk_charges(stream, params, lo, hi):
    """The charges of one :class:`ChargeTape` chunk in live order (see
    :func:`_charge_block`): those of blocks ``lo .. hi - 1`` of
    ``stream`` or, for ``lo == hi``, of the split events after its last
    block.

    Blocks with merged splits are listed through :func:`_charge_block`,
    the stretches between them at C speed from their flag bytes: a
    repeated-list template of the four slot charges per block, with the
    instruction and first-seen translation charges put in, and
    ``itertools.compress`` over the slots each block charges."""
    cost = _TapeCost(params)
    out = cost.charges = []
    if lo == hi:
        _charge_splits(cost, stream, lo)
        return out
    lanes = stream.transitions[3 * lo:3 * hi]
    flags = bytes(stream.flags[lo:hi])
    masks = [flags.translate(table) for table in _SLOT_TABLES]
    stub = params.PIN_BLOCK_STUB
    indirect = params.PIN_INDIRECT_EXTRA
    translate = params.PIN_TRANSLATION_PER_INSTR
    amount = _Amounts(params.NATIVE_INSTRUCTION).__getitem__
    blocks = hi - lo
    start = 0
    for stop in _marked(flags.translate(_SPLIT_TABLE), 0, blocks) + [blocks]:
        template = [stub, None, indirect, None] * (stop - start)
        template[3::4] = map(amount, lanes[3 * start + 2:3 * stop:3])
        for row in _marked(masks[1], start, stop):
            template[4 * (row - start) + 1] = translate * lanes[3 * row + 1]
        mask = bytearray(4 * (stop - start))
        for slot in range(4):
            mask[slot::4] = masks[slot][start:stop]
        out += compress(template, mask)
        if stop < blocks:
            _charge_block(cost, stream, lo + stop)
        start = stop + 1
    return out


class ChargeTape:
    """MiniPin's charge counts and packed batches on one stream, built
    once and used by every run.

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

    - ``categories[k]`` maps each Pin category charged so far to its
      running value at the segment's end, keyed in first-charge order;
    - ``batches[k]`` (delivered segments only, so no entry for the
      tail) is the :class:`~repro.core.compiled.PackedBatch` the tool
      receives: a zero-copy slice of the stream's ``transitions`` lane,
      its ``next_start`` list, its instruction totals, a zero-copy
      slice of the ``flags`` lane and its first block's start (``entry``
      for the first batch).  One dict interns the PCs of every batch, so
      the lists of a tape share one int object per distinct PC.
    - ``chunks[k]`` tiles the segment's charges, in live order (see
      :func:`_charge_block`), per chunk of :data:`_CHUNK_ROWS` blocks
      as ``(lo, hi, whole, pairs)``: the chunk's blocks ``lo .. hi -
      1``, the exact ``int`` sum of its whole-number charges, and
      ``(amount, count)`` per other amount it charges, or ``None`` for
      a chunk that cannot be priced (see below).  The trailing splits
      of a tail are a chunk of their own, with ``lo == hi``; an empty
      tail has no other.  A segment of fewer than :data:`_PRICED_ROWS`
      blocks is one chunk that is never priced.

    The tape keeps no charge list per segment, only these counts.  A
    run adds segment ``k``'s charges to ``CostModel.cycles`` with
    :meth:`fold` — the same value, bit for bit, as one ``charge`` per
    charge — and writes ``categories[k]`` into ``breakdown`` before the
    tool sees batch ``k``.  The tool's replay engine charges only its own
    categories, so writing absolute values keeps both the values and
    the key order.  :meth:`fold` prices a chunk from its summary in a
    few float operations when the running total stays in one binade
    (:func:`_priced` says why that is exact), and folds its charges
    with :func:`_fold` otherwise: for the first chunks (a total below
    1.0), a chunk that crosses a power of two, and one whose
    non-integral amount ties at that binade's spacing.  A chunk is
    never priced when a per-block rate (``NATIVE_INSTRUCTION``,
    ``PIN_TRANSLATION_PER_INSTR``) it charges is not a whole number,
    since that gives each block its own amount; nor when an amount is
    negative or not finite, or its whole sum reaches ``2**53``.  With
    the default rates only ``PIN_BLOCK_STUB`` (1.6) is not whole, so a
    chunk has one pair.  The charges of a folded chunk are listed from
    the stream's lanes by :func:`_chunk_charges` the first time a run
    folds it, and kept in ``kept`` (keyed ``(lo, hi)``) for the next:
    a run starts each chunk from a total that depends on its tool, so
    only the few chunks some run crossed a binade in are ever listed.

    The build runs at C speed over the lanes, one segment at a time.
    Each category's running value moves on by :func:`_fold` over
    iterators in live order: ``repeat(stub, n)``, a ``map`` over the
    instruction lane, the first-seen blocks' translations.  Blocks with
    merged splits are charged through :func:`_charge_block`.  A chunk's
    summary comes from ``bytes.count`` over per-block slot masks from
    ``bytes.translate``, ``sum()`` over strided slices of the
    instruction lane and over the first-seen blocks' instructions, and
    the listed charges of blocks with merged splits.
    """

    __slots__ = ("params", "categories", "batches", "chunks", "kept")

    def __init__(self, stream, params, batch, entry):
        # The tape's own copy of its rates: the caller's may change.
        params = self.params = CostParameters(
            **{name: getattr(params, name) for name in _RATES})
        self.categories = []
        self.batches = []
        self.chunks = []
        self.kept = {}
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
        # How each slot's charges enter a chunk summary: a whole rate
        # adds rate * units to the whole sum, and a constant amount that
        # is not whole is a pair.  A per-row rate that is not whole (one
        # amount per row) or a negative or non-finite amount leaves a
        # chunk with such charges unpriced.
        wholes = [_whole(rate) for rate in (
            stub, translate, indirect, params.NATIVE_INSTRUCTION)]
        paired = [rate if _whole(rate) is None and 0 <= rate < inf
                  else None for rate in (stub, indirect)]

        def plain(lo, hi):
            # Blocks lo .. hi - 1, none of which has merged splits: their
            # categories' running values move on.
            rows = _marked(masks[1], lo, hi)
            counts = [transitions[3 * row + 1] for row in rows]
            new_rows.extend(rows)
            new_counts.extend(counts)
            firsts = []
            for slot, amounts in enumerate((
                    repeat(stub, masks[0].count(1, lo, hi)),
                    [translate * count for count in counts],
                    repeat(indirect, masks[2].count(1, lo, hi)),
                    map(amount, transitions[3 * lo + 2:3 * hi:3]))):
                first = masks[slot].find(1, lo, hi)
                if first >= 0:
                    firsts.append((4 * first + slot, slot, amounts))
            for _position, slot, amounts in sorted(firsts):
                category = _SLOTS[slot]
                running[category] = _fold(running.get(category, 0.0),
                                         amounts)

        def chunks(lo, hi, listed):
            # ``(lo, hi, whole, pairs)`` per chunk of blocks lo .. hi - 1,
            # from counts over the masks, sums over the lanes and the
            # segment's first-seen rows; ``listed`` holds the charges of
            # each row with merged splits.
            if hi - lo < _PRICED_ROWS:
                return [(lo, hi, 0, None)] if hi > lo else []
            starts = range(lo, hi, _CHUNK_ROWS)
            stops = [*starts[1:], hi]
            stubs = list(map(masks[0].count, repeat(1), starts, stops))
            indirects = list(map(masks[2].count, repeat(1), starts, stops))
            at = list(map(bisect_left, repeat(new_rows), [lo, *stops]))
            sums = map(sum, map(transitions.__getitem__, map(
                slice, range(3 * lo + 2, 3 * hi, 3 * _CHUNK_ROWS),
                [3 * stop for stop in stops], repeat(3))))
            found = []
            for start, stop, stub_count, indirect_count, begin, finish, \
                    instruction_sum in zip(starts, stops, stubs, indirects,
                                           at, at[1:], sums):
                inside = split[bisect_left(split, start):
                               bisect_left(split, stop)]
                if inside:
                    instruction_sum -= sum([transitions[3 * row + 2]
                                            for row in inside])
                whole, pairs = _summary(
                    [charge for row in inside for charge in listed[row]])
                for count, units, rate_whole, rate in (
                        (stub_count, stub_count, wholes[0], paired[0]),
                        (finish - begin, sum(new_counts[begin:finish]),
                         wholes[1], None),
                        (indirect_count, indirect_count, wholes[2],
                         paired[1]),
                        (stop - start - len(inside), instruction_sum,
                         wholes[3], None)):
                    if not count or pairs is None:
                        continue
                    if rate_whole is not None:
                        whole += rate_whole * units
                    elif rate is not None:
                        pairs.append((rate, units))
                    else:
                        pairs = None
                found.append((start, stop, whole,
                              pairs if whole < _EXACT else None))
            return found

        split = _marked(flags.translate(_SPLIT_TABLE), 0, rows)
        full = rows - rows % batch if stream.exceeded else rows
        bounds = [(lo, min(lo + batch, rows)) for lo in range(0, full, batch)]
        if stream.exceeded:
            bounds.append((full, rows))
        for lo, hi in bounds[:len(bounds) - stream.exceeded]:
            start = transitions[3 * lo - 3] if lo else entry
            self.batches.append(PackedBatch(transitions[3 * lo:3 * hi], seen,
                                            stream.flags[lo:hi], start))
        for first, hi in bounds:
            # plain() lists the segment's first-seen rows and their
            # instrs_dbt here, for chunks().
            new_rows = []
            new_counts = []
            listed = {}
            lo = first
            for index in split[bisect_left(split, lo):bisect_left(split, hi)]:
                plain(lo, index)
                cost.charges = listed[index] = []
                _charge_block(cost, stream, index)
                lo = index + 1
            plain(lo, hi)
            self.categories.append(dict(running))
            self.chunks.append(chunks(first, hi, listed))
        if stream.exceeded:
            # The trailing splits close the tail segment, in a chunk of
            # their own.
            cost.charges = []
            _charge_splits(cost, stream, rows)
            self.categories[-1] = dict(running)
            self.chunks[-1].append((rows, rows, *_summary(cost.charges)))

    def fold(self, total, segment, stream):
        """``total`` plus the charges of segment ``segment`` on
        ``stream`` (the tape's own), bit for bit as :func:`_fold` over
        them in live order: each chunk :func:`_priced` where it can be,
        and its charges folded where not, listed the first time and
        kept.  Threads that list a chunk at once keep one list."""
        kept = self.kept
        for lo, hi, whole, pairs in self.chunks[segment]:
            priced = None if pairs is None else _priced(total, whole, pairs)
            if priced is None:
                charges = kept.get((lo, hi))
                if charges is None:
                    charges = kept.setdefault((lo, hi), _chunk_charges(
                        stream, self.params, lo, hi))
                priced = _fold(total, charges)
            total = priced
        return total


class Pin:
    """The engine: one instance per program run.

    ``stream`` is the program's recorded
    :class:`~repro.cpu.stream.ExecutionStream` (same program content
    digest and ``max_instructions``, else ``ValueError``); when omitted,
    :meth:`run` records one first — the one interpreter run.  Pass one
    stream to every engine that runs the same program to execute it
    once.

    A run adds up the stream's :class:`ChargeTape` for its cost
    parameters and the tool's ``packed_batch`` (the default batch size
    without a tool), built by the first such run and reused by the
    next: per segment, Pin's charges, then the tool gets its batch.
    The charges are priced per chunk where one binade's rounding prices
    them exactly and folded one by one elsewhere, so ``cycles`` is the
    live engine's left-to-right float sum, bit for bit.  The tape keeps
    counts, not charges: a chunk's charges are listed from the stream's
    lanes the first time a run folds that chunk, and kept on the tape
    for the next run.

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
        # The tool sees the batches a live run would hand over: full
        # ones as they fill, the remainder at the end; a run over its
        # budget delivers no partial batch.  A run without a tool folds
        # the same segments.
        cost = self.cost
        params = cost.params
        batch = tool.packed_batch if tool is not None \
            else DEFAULT_PACKED_BATCH
        key = (*[getattr(params, name) for name in _RATES], batch)
        tape = stream.charge_tape(key, lambda: ChargeTape(
            stream, params, batch, self.program.entry))
        breakdown = cost.breakdown
        delivered = len(tape.batches) if tool is not None else 0
        for segment, categories in enumerate(tape.categories):
            cost.cycles = tape.fold(cost.cycles, segment, stream)
            breakdown.update(categories)
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
