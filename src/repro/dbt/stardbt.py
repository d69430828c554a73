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
"""

from repro.cfg.basic_block import BlockIndex
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
    :class:`~repro.cpu.stream.ExecutionStream` (same
    ``max_instructions``); :meth:`run` records one when it is omitted.
    """

    def __init__(self, program, strategy="mret", limits=None,
                 cost_params=None, memory_model=None,
                 max_instructions=DEFAULT_MAX_INSTRUCTIONS,
                 recorder_kwargs=None, stream=None):
        self.program = program
        self.stream = matching(stream, max_instructions)
        self.strategy = strategy
        self.block_index = BlockIndex(program)
        self.cost = CostModel(cost_params or CostParameters())
        self.code_cache = CodeCache(memory_model=memory_model)
        kwargs = dict(recorder_kwargs or {})
        kwargs["limits"] = limits
        kwargs["on_trace"] = self._trace_committed
        self.recorder = make_recorder(strategy, **kwargs)
        self.max_instructions = max_instructions

        self._translated = set()
        self._cursor = None  # (trace, index) while executing trace code
        self._covered_dbt = 0
        self._blocks = 0

    # ------------------------------------------------------------------

    def _trace_committed(self, trace):
        params = self.cost.params
        self.cost.charge(
            "trace_build", params.DBT_TRACE_BUILD_PER_TBB * len(trace)
        )
        self.code_cache.install(trace)

    def _handle(self, transition):
        cost = self.cost
        params = cost.params
        block = transition.block
        self._blocks += 1

        if block.key not in self._translated:
            self._translated.add(block.key)
            cost.charge(
                "translation",
                params.DBT_TRANSLATION_PER_INSTR * block.n_instrs,
            )

        in_trace = self._cursor is not None
        if in_trace:
            self._covered_dbt += transition.instrs_dbt
            cost.charge_instructions(transition.instrs_dbt)
        else:
            cost.charge_instructions(
                transition.instrs_dbt, 1.0 + params.DBT_COLD_TAX
            )

        next_start = transition.next_start
        if next_start is None:
            self._cursor = None
        elif self._cursor is not None:
            trace, index = self._cursor
            successor = trace.tbbs[index].successors.get(next_start)
            if successor is not None:
                self._cursor = (trace, successor)
            elif next_start == trace.entry:
                self._cursor = (trace, 0)
            else:
                entered = self.recorder.traces.trace_at(next_start)
                self._cursor = (entered, 0) if entered is not None else None
        else:
            entered = self.recorder.traces.trace_at(next_start)
            if entered is not None:
                self._cursor = (entered, 0)

        self.recorder.observe(transition)
        if self.recorder.state == STATE_CREATING:
            cost.charge("recording", params.DBT_RECORD_PER_BLOCK)

    # ------------------------------------------------------------------

    def run(self):
        """Run the program under the DBT; returns :class:`DBTResult`."""
        stream = self.stream
        if stream is None:
            stream = self.stream = ExecutionStream.record(
                self.program, self.max_instructions)
        handle = self._handle
        for transition in stream.block_transitions(self.block_index,
                                                   self.program.entry):
            handle(transition)
        if stream.exceeded:
            raise stream.limit_error()
        trace_set = self.recorder.finish()
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
