"""Algorithm 2: recording TEA online, without building trace code.

This is the Table 3 experiment: a pintool that *records* traces (MRET in
the paper) and maintains the TEA as traces finish — "building and
profiling traces without the need for actual trace construction".

The composition is: a strategy recorder
(:class:`~repro.traces.recorder.TraceRecorder`) runs its Algorithm 2
state machine over the block stream; whenever it commits a trace, the
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
from repro.cpu.events import event_code
from repro.traces.recorder import STATE_CREATING


class OnlineTeaRecorder:
    """Record traces and grow a TEA while the program executes.

    ``obs`` (optional :class:`~repro.obs.Observability`) is shared with
    the embedded replayer; recording-side events land in ``record.*``
    counters and trace commits are emitted to the tracer.
    """

    def __init__(self, recorder, config=None, cost=None, profile=None,
                 obs=None):
        self.tea = TEA()
        self.recorder = recorder
        recorder.on_trace = self._trace_committed
        self.replayer = TeaReplayer(
            self.tea, config=config or ReplayConfig.global_local(),
            cost=cost, profile=profile, obs=obs,
        )
        self.obs = self.replayer.obs
        self._synced = set()

    @property
    def cost(self):
        return self.replayer.cost

    @property
    def stats(self):
        return self.replayer.stats

    def _trace_committed(self, trace):
        sync_trace(self.tea, trace)
        self.replayer.register_trace(trace.entry, self.tea.state_for(trace.tbbs[0]))
        self._synced.add(trace.trace_id)
        self.obs.metrics.counter("record.traces_committed").inc()
        self.obs.emit(
            "record.trace_committed",
            trace_id=trace.trace_id,
            entry=trace.entry,
            tbbs=len(trace.tbbs),
        )

    def observe(self, transition):
        """Feed one block transition to both the recorder and the replayer."""
        params = self.cost.params
        metrics = self.obs.metrics
        event = transition.event
        if event is not None and event.is_backward:
            self.cost.charge("recording", params.RECORD_COUNTER)
            metrics.counter("record.backward_edges").inc()
        self.recorder.observe(transition.block, transition.next_start,
                              event_code(event))
        if self.recorder.state == STATE_CREATING:
            self.cost.charge("recording", params.RECORD_APPEND)
            metrics.counter("record.appends").inc()
        self.replayer.step(transition)

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
