"""MRET — Most Recently Executed Tail (Dynamo / NET).

The strategy the paper uses for its Table 2/3 experiments.  Counters sit
on targets of *backward taken branches only* ("less is more"); when a
target's counter crosses the hot threshold, the very next execution path
from that target is recorded as a superblock.  Recording ends when the
path:

- branches back to the trace head (the loop closes — a cycle edge is
  added, the common case for hot loops);
- takes any other backward branch (a different cycle: end without edge);
- reaches the head of an existing trace (traces link, not grow);
- revisits a block already in this trace (irreducible flow guard); or
- hits the block-count limit.
"""

from repro.traces.recorder import (
    STATE_CREATING,
    STATE_EXECUTING,
    TraceRecorder,
)


class MRETRecorder(TraceRecorder):
    """Records superblock traces from hot backward-branch targets."""

    kind = "mret"

    def __init__(self, limits=None, on_trace=None):
        super().__init__(limits=limits, on_trace=on_trace)
        self._current = None
        self._seen_starts = None

    # -- Executing ------------------------------------------------------

    def _observe_executing(self, block, next_start, code, backward):
        # Dynamo's two start-of-trace conditions: the target of a backward
        # taken branch, or the target of a side exit from an existing
        # trace (this second rule is what records T2 in Figure 2: T2
        # begins at $$inc, T1's side-exit target).
        exit_to_cold = self._cursor_step(next_start)
        if not (backward or exit_to_cold):  # neither holds at the end
            return
        if self.budget_exhausted or self._total_budget_left() <= 0:
            return
        if self.traces.has_entry(next_start):
            return
        if self._bump_hot_addr(next_start):
            # StartCreatingTrace: the next completed block begins at the
            # hot target and becomes the trace head.
            self._current = self.traces.new_trace(kind=self.kind,
                                                  anchor=next_start)
            self._seen_starts = set()
            self._exec_cursor = None
            self.state = STATE_CREATING

    # -- Creating -------------------------------------------------------

    def _observe_creating(self, block, next_start, code, backward):
        trace = self._current

        # AddTBBToTrace
        trace.add_block(block)
        self._seen_starts.add(block.start)
        if len(trace) > 1:
            trace.add_edge(len(trace.tbbs) - 2, len(trace.tbbs) - 1)

        if self._done_recording(next_start, backward):
            self._finish_trace(next_start)

    def _done_recording(self, next_start, backward):
        trace = self._current
        if next_start is None:
            return True  # program ended mid-recording
        if next_start == trace.entry:
            return True  # loop closed
        if backward:
            return True  # someone else's cycle
        if self.traces.has_entry(next_start):
            return True  # reached an existing trace
        if next_start in self._seen_starts:
            return True  # internal revisit (irreducible flow)
        if len(trace) >= self.limits.max_trace_blocks:
            return True
        if self._total_budget_left() <= len(trace):
            return True
        return False

    def _finish_trace(self, next_start):
        trace = self._current
        if next_start == trace.entry:
            # The superblock cycles back to its own head: $$Tn.last ->
            # $$Tn.head, exactly the Figure 3 cycle edge.
            trace.add_edge(len(trace.tbbs) - 1, 0)
        self._commit(trace)
        self._current = None
        self._seen_starts = None
        self.state = STATE_EXECUTING

    def _finish_pending(self):
        trace = self._current
        if trace is not None and len(trace) > 0:
            self._commit(trace)
        self._current = None
        self._seen_starts = None
