"""A StarDBT-like dynamic binary translator runtime.

StarDBT translates IA-32 to IA-32, recording hot traces into a code cache
with replicated code.  This runtime reproduces its externally visible
behaviour on top of the SX86 interpreter:

- blocks are translated on first touch (one-time per-instruction cost);
- a trace recorder (MRET/CTT/TT/MFET) watches the block stream; recording
  adds per-block overhead while in the "Creating" state, and a committed
  trace pays a one-time build/link cost and lands in the code cache;
- execution inside traces runs at native speed (the whole point of code
  replication: no transition function), cold code pays a small tax;
- coverage is the fraction of dynamic instructions executed inside
  traces, under StarDBT counting (REP ops count once) — the "DBT"
  columns of Tables 2 and 3.

The trace-following cursor mirrors what linked trace code does: in-trace
edges and the cycle back to the trace head are direct jumps; leaving a
trace returns to translated cold code.

:meth:`StarDBT.run` walks the execution stream's lanes directly: one
row per block, no per-block event or transition object.  It charges the
cost model in bulk, adding every charge into local totals in the order
the blocks run (the same float additions, in the same order, as one
``CostModel.charge`` per charge), so cycles and breakdown are exact.
"""

from repro.cfg.basic_block import BlockIndex
from repro.cpu.events import FLAG_FINAL
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS
from repro.cpu.stream import ExecutionStream, matching
from repro.dbt.code_cache import CodeCache
from repro.dbt.cost import CostModel, CostParameters
from repro.traces import make_recorder
from repro.traces.recorder import STATE_CREATING


class DBTResult:
    """Outcome of one StarDBT run."""

    __slots__ = (
        "trace_set",
        "code_cache",
        "cost",
        "blocks",
        "instrs_dbt",
        "instrs_pin",
        "covered_dbt",
        "halted",
    )

    def __init__(self, trace_set, code_cache, cost, blocks, instrs_dbt,
                 instrs_pin, covered_dbt, halted):
        self.trace_set = trace_set
        self.code_cache = code_cache
        self.cost = cost
        self.blocks = blocks
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin
        self.covered_dbt = covered_dbt
        self.halted = halted

    @property
    def coverage(self):
        """Covered fraction of dynamic instructions (StarDBT counting)."""
        return self.covered_dbt / self.instrs_dbt if self.instrs_dbt else 0.0

    @property
    def cycles(self):
        return self.cost.cycles

    @property
    def megacycles(self):
        return self.cost.megacycles

    def __repr__(self):
        return "<DBTResult traces=%d coverage=%.1f%% %.1f Mcycles>" % (
            len(self.trace_set),
            100.0 * self.coverage,
            self.megacycles,
        )


class StarDBT:
    """The runtime.  Build one per program run and call :meth:`run`.

    ``stream`` is the program's recorded
    :class:`~repro.cpu.stream.ExecutionStream` (same program content
    digest and ``max_instructions``, else ``ValueError``); :meth:`run`
    records one when it is omitted.
    """

    def __init__(self, program, strategy="mret", limits=None,
                 cost_params=None, memory_model=None,
                 max_instructions=DEFAULT_MAX_INSTRUCTIONS,
                 recorder_kwargs=None, stream=None):
        self.program = program
        self.stream = matching(stream, program, max_instructions)
        self.strategy = strategy
        self.block_index = BlockIndex(program)
        self.cost = cost = CostModel(cost_params or CostParameters())
        self.code_cache = code_cache = CodeCache(memory_model=memory_model)
        # Trace-build charges of commits the run has not added yet.
        self._builds = builds = []

        def trace_committed(trace):
            builds.append(cost.params.DBT_TRACE_BUILD_PER_TBB * len(trace))
            code_cache.install(trace)

        kwargs = dict(recorder_kwargs or {})
        kwargs["limits"] = limits
        # A closure, not a bound method: the recorder must not hold the
        # runtime, or the two would form a reference cycle.
        kwargs["on_trace"] = trace_committed
        self.recorder = make_recorder(strategy, **kwargs)
        self.max_instructions = max_instructions
        self._covered_dbt = 0
        self._blocks = 0

    # ------------------------------------------------------------------

    def run(self):
        """Run the program under the DBT; returns :class:`DBTResult`."""
        stream = self.stream
        if stream is None:
            stream = self.stream = ExecutionStream.record(
                self.program, self.max_instructions)
        cost = self.cost
        params = cost.params
        breakdown = cost.breakdown
        translation_rate = params.DBT_TRANSLATION_PER_INSTR
        hot_rate = params.NATIVE_INSTRUCTION
        cold_rate = 1.0 + params.DBT_COLD_TAX
        record_rate = params.DBT_RECORD_PER_BLOCK
        recorder = self.recorder
        observe = recorder.observe
        trace_at = recorder.traces.trace_at
        block_from = self.block_index.block_from
        builds = self._builds

        # Category totals live in locals while the rows run; a category
        # enters ``breakdown`` (as a placeholder) when first charged, so
        # the key order is the order of first charges.
        cycles = cost.cycles
        instructions = breakdown.get("instructions", 0.0)
        recording = breakdown.get("recording", 0.0)
        recording_keyed = "recording" in breakdown
        covered = 0
        blocks = {}          # block start -> block, translated this run
        trace = node = None  # the trace and TBB executing, if any
        start = self.program.entry
        transitions = stream.transitions
        for next_start, instrs_dbt, code in zip(
                transitions[0::3], transitions[1::3], stream.flags):
            block = blocks.get(start)
            if block is None:
                block = blocks[start] = block_from(start)
                charge = translation_rate * block.n_instrs
                cycles += charge
                breakdown["translation"] = (
                    breakdown.get("translation", 0.0) + charge)
                breakdown.setdefault("instructions", 0.0)

            if node is not None:
                covered += instrs_dbt
                charge = instrs_dbt * hot_rate
            else:
                charge = instrs_dbt * cold_rate
            cycles += charge
            instructions += charge

            # Follow in-trace edges; anything else (the cycle back to a
            # head included) enters the trace at ``next_start``, if any.
            if code & FLAG_FINAL:
                next_start = None
            else:
                successor = None
                if node is not None:
                    successor = node.successors.get(next_start)
                if successor is not None:
                    node = trace.tbbs[successor]
                else:
                    trace = trace_at(next_start)
                    node = trace.tbbs[0] if trace is not None else None

            observe(block, next_start, code)
            if builds:
                for charge in builds:
                    cycles += charge
                    breakdown["trace_build"] = (
                        breakdown.get("trace_build", 0.0) + charge)
                builds.clear()
            if recorder.state == STATE_CREATING:
                if not recording_keyed:
                    breakdown["recording"] = 0.0
                    recording_keyed = True
                cycles += record_rate
                recording += record_rate
            start = next_start

        cost.cycles = cycles
        if "instructions" in breakdown:
            breakdown["instructions"] = instructions
        if recording_keyed:
            breakdown["recording"] = recording
        self._covered_dbt += covered
        self._blocks += stream.n_transitions
        if stream.exceeded:
            raise stream.limit_error()
        trace_set = recorder.finish()
        for charge in builds:
            cost.charge("trace_build", charge)
        builds.clear()
        return DBTResult(
            trace_set,
            self.code_cache,
            self.cost,
            self._blocks,
            stream.instrs_dbt,
            stream.instrs_pin,
            self._covered_dbt,
            stream.halted,
        )
