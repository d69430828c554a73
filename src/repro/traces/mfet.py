"""MFET — Most Frequently Executed Tail (related-work extension).

MFET instruments *every* edge of the dynamic execution rather than only
back edges, trading profiling overhead for earlier/finer trigger points
(the paper cites UQBT; Duesterwald & Bala's "less is more" argued MRET's
cheaper counters predict paths just as well).  It is included as the
extension strategy: the recording rules are MRET's, but the trigger is a
counter on every taken edge, so hot non-loop paths (e.g. frequently taken
call targets) also become trace heads.  The trigger needs no view of
where execution is, so MFET keeps no trace cursor.
"""

from repro.cpu.events import FLAG_TAKEN
from repro.traces.mret import MRETRecorder
from repro.traces.recorder import WAKE_TAKEN_EDGES, TraceRecorder


class MFETRecorder(MRETRecorder):
    """Edge-profile-triggered variant of the tail recorder."""

    kind = "mfet"
    wake_rule = WAKE_TAKEN_EDGES
    in_step = TraceRecorder.in_step  # no cursor: always in step

    def __init__(self, limits=None, on_trace=None):
        super().__init__(limits=limits, on_trace=on_trace)
        self._edge_counters = {}

    def _observe_executing(self, block, next_start, code, backward):
        # The end of the run is never taken.
        if code & FLAG_TAKEN and not self.traces.has_entry(next_start):
            self.trigger(block, next_start)

    def trigger(self, block, next_start):
        if self.budget_exhausted or self._total_budget_left() <= 0:
            return
        key = (block.end, next_start)
        count = self._edge_counters.get(key, 0) + 1
        self._edge_counters[key] = count
        if count == self.limits.hot_threshold:
            self._edge_counters[key] = 0
            self._start_trace(next_start)
