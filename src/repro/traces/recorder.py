"""Recorder base class: Algorithm 2's three-state machine.

The paper expresses trace recording as a state machine with "Initial",
"Executing" and "Creating" states, invoked at every block boundary
(Algorithm 2).  :class:`TraceRecorder` implements exactly that skeleton;
strategies plug in the two rule hooks the paper leaves open:
``TriggerTraceRecording`` (when to leave Executing) and
``DoneTraceRecording`` (when to finish a trace).

A block boundary is observed as three plain values, read straight from
an :class:`~repro.cpu.stream.ExecutionStream`'s lanes: the
:class:`~repro.cfg.basic_block.BasicBlock` that just completed, the
start of the next one (``None`` at the end of the run) and the flag
byte of the event that ended it (:mod:`repro.cpu.events`).  No
per-block object is built to carry them.

The base also maintains the hot-spot counters every strategy shares: a
counter per backward-taken-branch target (Dynamo's "start of trace"
heuristic — counting only back edges is what makes MRET cheap), and the
set of observed loop headers that CTT consults.
"""

from repro.cpu.events import FLAG_TAKEN
from repro.traces.model import TraceSet

STATE_INITIAL = "initial"
STATE_EXECUTING = "executing"
STATE_CREATING = "creating"


class RecorderLimits:
    """Shared knobs for all strategies.

    ``hot_threshold`` mirrors Dynamo's default of ~50 executions before a
    backward-branch target is considered hot.  The budget caps emulate a
    bounded code cache: once ``max_total_tbbs`` is reached the recorder
    stops creating traces, the same way a DBT stops translating when its
    cache fills (this is what keeps the TT blowup finite, as the paper's
    1.8 GB bzip2 row plainly did not).
    """

    __slots__ = (
        "hot_threshold",
        "max_trace_blocks",
        "max_path_blocks",
        "max_tree_tbbs",
        "max_total_tbbs",
        "min_shared_tail_blocks",
    )

    def __init__(
        self,
        hot_threshold=50,
        max_trace_blocks=64,
        max_path_blocks=40,
        max_tree_tbbs=8192,
        max_total_tbbs=400_000,
        min_shared_tail_blocks=2,
    ):
        self.hot_threshold = hot_threshold
        self.max_trace_blocks = max_trace_blocks
        self.max_path_blocks = max_path_blocks
        self.max_tree_tbbs = max_tree_tbbs
        self.max_total_tbbs = max_total_tbbs
        self.min_shared_tail_blocks = min_shared_tail_blocks


class TraceRecorder:
    """Algorithm 2 skeleton; subclasses implement the strategy rules.

    Parameters
    ----------
    limits:
        A :class:`RecorderLimits`; defaults are Dynamo-flavoured.
    on_trace:
        Callback invoked with every finished
        :class:`~repro.traces.model.Trace` (the DBT installs it in its
        code cache; the online TEA recorder extends the automaton).
    """

    kind = "abstract"

    def __init__(self, limits=None, on_trace=None):
        self.limits = limits or RecorderLimits()
        self.on_trace = on_trace
        self.state = STATE_INITIAL
        self.traces = TraceSet(kind=self.kind)
        # Running ``self.traces.n_tbbs``: the budget check runs per block,
        # so it must not re-sum every committed trace.
        self.committed_tbbs = 0
        self.hot_counters = {}
        self.loop_headers = set()
        self.budget_exhausted = False
        self._exec_cursor = None

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------

    def observe(self, block, next_start, code):
        """Feed one block transition; called between TBB executions.

        ``block`` just completed, ``next_start`` is where execution
        continues (``None`` when the run ended) and ``code`` is the flag
        byte of the event that ended ``block``.  A taken transfer to
        ``next_start <= block.end`` is a backward branch.
        """
        state = self.state
        if state == STATE_INITIAL:
            # "Initial": set up an empty TEA/trace set, move to Executing.
            state = self.state = STATE_EXECUTING

        backward = code & FLAG_TAKEN and next_start <= block.end
        if backward:
            self.loop_headers.add(next_start)

        if state == STATE_EXECUTING:
            self._observe_executing(block, next_start, code, backward)
        elif state == STATE_CREATING:
            self._observe_creating(block, next_start, code, backward)

    def finish(self):
        """End of run: close any in-flight recording, return the traces."""
        self._finish_pending()
        self.state = STATE_EXECUTING
        return self.traces

    # ------------------------------------------------------------------
    # shared machinery for subclasses
    # ------------------------------------------------------------------

    def _bump_hot_addr(self, addr):
        """Count a start-of-trace candidate address (backward-branch target
        or trace side-exit target, Dynamo's two conditions)."""
        count = self.hot_counters.get(addr, 0) + 1
        self.hot_counters[addr] = count
        if count == self.limits.hot_threshold:
            self.hot_counters[addr] = 0
            return True
        return False

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

    def _total_budget_left(self):
        left = self.limits.max_total_tbbs - self.committed_tbbs
        if left <= 0:
            self.budget_exhausted = True
        return left

    def _commit(self, trace):
        self.traces.add(trace)
        self.committed_tbbs += len(trace)
        if self.on_trace is not None:
            self.on_trace(trace)

    # ------------------------------------------------------------------
    # strategy hooks
    # ------------------------------------------------------------------

    def _observe_executing(self, block, next_start, code, backward):
        raise NotImplementedError

    def _observe_creating(self, block, next_start, code, backward):
        raise NotImplementedError

    def _finish_pending(self):
        """Close an in-flight trace at end of run (default: nothing)."""
