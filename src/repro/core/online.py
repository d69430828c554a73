"""Algorithm 2: recording TEA online, without building trace code.

This is the Table 3 experiment: a pintool that *records* traces (MRET in
the paper) and maintains the TEA as traces finish — "building and
profiling traces without the need for actual trace construction".

The composition is: a strategy recorder
(:class:`~repro.traces.recorder.TraceRecorder`) runs its Algorithm 2
state machine over the rows of the run's packed batches; whenever it
commits a trace, the
trace is folded into the automaton with
:func:`~repro.core.builder.sync_trace` and registered with the replayer's
directory, so execution is tracked through the freshly recorded trace
from that point on.  The recorder's own bookkeeping is charged to the
same cost model (``RECORD_COUNTER`` per backward edge observed,
``RECORD_APPEND`` per TBB appended).
"""

from repro.core.automaton import TEA
from repro.core.builder import sync_trace
from repro.core.replay import ReplayConfig, TeaReplayer
from repro.cpu.events import FLAG_FINAL, FLAG_TAKEN
from repro.traces.recorder import STATE_CREATING


class OnlineTeaRecorder:
    """Record traces and grow a TEA while the program executes.

    ``obs`` (optional :class:`~repro.obs.Observability`) is shared with
    the embedded replayer; recording-side events land in ``record.*``
    counters and trace commits are emitted to the tracer.
    """

    def __init__(self, recorder, config=None, cost=None, profile=None,
                 obs=None):
        self.tea = tea = TEA()
        self.recorder = recorder
        self.replayer = replayer = TeaReplayer(
            tea, config=config or ReplayConfig.global_local(),
            cost=cost, profile=profile, obs=obs,
        )
        self.obs = obs = replayer.obs
        self._synced = synced = set()

        def trace_committed(trace):
            sync_trace(tea, trace)
            replayer.register_trace(trace.entry,
                                    tea.state_for(trace.tbbs[0]))
            synced.add(trace.trace_id)
            obs.metrics.counter("record.traces_committed").inc()
            obs.emit(
                "record.trace_committed",
                trace_id=trace.trace_id,
                entry=trace.entry,
                tbbs=len(trace.tbbs),
            )

        # A closure, not a bound method: the recorder must not hold this
        # object, or the two would form a reference cycle.
        recorder.on_trace = trace_committed

    @property
    def cost(self):
        return self.replayer.cost

    @property
    def stats(self):
        return self.replayer.stats

    def observe(self, batch, block_from):
        """Feed the rows of a packed ``batch`` to both the recorder and
        the replayer, decoding each row's block with ``block_from``."""
        charge = self.cost.charge
        params = self.cost.params
        recorder = self.recorder
        observe = recorder.observe
        step = self.replayer.step
        triples = batch.triples
        start = batch.start
        backward_edges = appends = 0
        for next_start, instrs_dbt, instrs_pin, code in zip(
                batch.pcs, triples[1::3], triples[2::3], batch.flags):
            block = block_from(start)
            if code & FLAG_FINAL:
                next_start = None
            elif code & FLAG_TAKEN and next_start <= block.end:
                charge("recording", params.RECORD_COUNTER)
                backward_edges += 1
            observe(block, next_start, code)
            if recorder.state == STATE_CREATING:
                charge("recording", params.RECORD_APPEND)
                appends += 1
            step(next_start, instrs_dbt, instrs_pin)
            start = next_start
        metrics = self.obs.metrics
        if backward_edges:
            metrics.counter("record.backward_edges").inc(backward_edges)
        if appends:
            metrics.counter("record.appends").inc(appends)

    def finish(self):
        """End of run: close pending recordings, final tree re-sync."""
        traces = self.recorder.finish()
        for trace in traces:
            # Tree strategies mutate committed traces as they extend
            # them; sync_trace is idempotent, so re-walk everything.
            sync_trace(self.tea, trace)
        return traces

    def snapshot(self):
        """Observability snapshot: replayer metrics plus recording totals."""
        snap = self.replayer.snapshot()
        snap["recording"] = {
            "traces_committed": len(self._synced),
            "tea_states": self.tea.n_states,
            "tea_transitions": self.tea.n_transitions,
        }
        return snap
