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

In the Executing state only a row that is a taken back edge or a side
exit, to an address that is no trace's entry, can change the recorder
(:data:`~repro.traces.recorder.WAKE_BACK_EDGES_AND_EXITS`).  To spot side
exits the recorder follows the committed traces with its own cursor,
which it drops when a recording starts: it stays blind, missing side
exits, until execution enters a trace through an entry or leaves traced
code.
"""

from repro.traces.recorder import (
    STATE_CREATING,
    STATE_EXECUTING,
    WAKE_BACK_EDGES_AND_EXITS,
    TraceRecorder,
)


class MRETRecorder(TraceRecorder):
    """Records superblock traces from hot backward-branch targets."""

    kind = "mret"
    wake_rule = WAKE_BACK_EDGES_AND_EXITS

    def __init__(self, limits=None, on_trace=None):
        super().__init__(limits=limits, on_trace=on_trace)
        self._current = None
        self._seen_starts = None
        self._exec_cursor = None  # (trace, tbb index) execution is in

    # -- Executing ------------------------------------------------------

    def _observe_executing(self, block, next_start, code, backward):
        # Dynamo's two start-of-trace conditions: the target of a backward
        # taken branch, or the target of a side exit from an existing
        # trace (this second rule is what records T2 in Figure 2: T2
        # begins at $$inc, T1's side-exit target).  Neither holds at the
        # end of the run.
        exit_to_cold = self._cursor_step(next_start)
        if ((backward or exit_to_cold)
                and not self.traces.has_entry(next_start)):
            self.trigger(block, next_start)

    def trigger(self, block, next_start):
        if self.budget_exhausted or self._total_budget_left() <= 0:
            return
        if self._bump_hot_addr(next_start):
            self._start_trace(next_start)

    def in_step(self, trace, node):
        cursor = self._exec_cursor
        if cursor is None:
            return node is None
        return cursor[0] is trace and trace.tbbs[cursor[1]] is node

    def _start_trace(self, anchor):
        """StartCreatingTrace: the next completed block begins at the hot
        target ``anchor`` and becomes the trace head."""
        self._current = self.traces.new_trace(kind=self.kind, anchor=anchor)
        self._seen_starts = set()
        self._exec_cursor = None
        self.state = STATE_CREATING

    def _cursor_step(self, next_start):
        """Track which recorded trace execution is currently inside.

        Returns True when the transition to ``next_start`` is a *side
        exit to cold code* — leaving a trace towards an address that is
        no trace's entry.  Exits landing on another trace's entry are
        trace-to-trace transitions, not trigger candidates.
        """
        cursor = self._exec_cursor
        if next_start is None:
            self._exec_cursor = None
            return False
        if cursor is not None:
            trace, index = cursor
            successor = trace.tbbs[index].successors.get(next_start)
            if successor is not None:
                self._exec_cursor = (trace, successor)
                return False
        # Anything else, the cycle back to the head included, enters the
        # trace whose entry is ``next_start``, if there is one.
        entered = self.traces.trace_at(next_start)
        self._exec_cursor = (entered, 0) if entered is not None else None
        return entered is None and cursor is not None

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
        # The run is over: a per-row caller's last row left the cursor
        # outside traces, and a caller that skipped rows never stepped it.
        self._exec_cursor = None
