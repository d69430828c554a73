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
heuristic — counting only back edges is what makes MRET cheap).

A caller that walks the committed traces itself (StarDBT) need not call
:meth:`TraceRecorder.observe` on every row: a strategy whose
:attr:`~TraceRecorder.wake_rule` is set names the Executing-state rows
that can change it, and the caller hands only those to
:meth:`~TraceRecorder.trigger`.
"""

from repro.cpu.events import FLAG_TAKEN
from repro.traces.model import TraceSet

STATE_INITIAL = "initial"
STATE_EXECUTING = "executing"
STATE_CREATING = "creating"

#: Wake rules (:attr:`TraceRecorder.wake_rule`): the Executing-state rows
#: that can change a recorder.  MRET's: a taken back edge, or a side exit
#: from a trace to cold code, whose target is no trace's entry.
WAKE_BACK_EDGES_AND_EXITS = "back edges and side exits"
#: MFET's: any taken edge whose target is no trace's entry.
WAKE_TAKEN_EDGES = "taken edges"


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

    #: The Executing-state rows that can change this recorder, for a
    #: caller that walks the committed traces itself: ``None`` (any row
    #: can; the caller calls :meth:`observe` on every row),
    #: :data:`WAKE_BACK_EDGES_AND_EXITS` or :data:`WAKE_TAKEN_EDGES`.
    #: With a rule, the caller calls :meth:`observe` on every row while
    #: the recorder is not Executing or not :meth:`in_step` with the
    #: caller's walk, and otherwise :meth:`trigger` on the rows the rule
    #: picks and nothing on the rest.
    wake_rule = None

    def __init__(self, limits=None, on_trace=None):
        self.limits = limits or RecorderLimits()
        self.on_trace = on_trace
        self.state = STATE_INITIAL
        self.traces = TraceSet(kind=self.kind)
        # Running ``self.traces.n_tbbs``: the budget check runs per block,
        # so it must not re-sum every committed trace.
        self.committed_tbbs = 0
        self.hot_counters = {}
        self.budget_exhausted = False

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
        if state == STATE_EXECUTING:
            self._observe_executing(block, next_start, code, backward)
        elif state == STATE_CREATING:
            self._observe_creating(block, next_start, code, backward)

    def trigger(self, block, next_start):
        """TriggerTraceRecording for a row the :attr:`wake_rule` picked:
        ``block`` leads to ``next_start``, which is no trace's entry.
        May enter Creating (the row then pays the recording charge);
        never commits a trace."""
        raise NotImplementedError

    def in_step(self, trace, node):
        """True when the recorder's view of where execution is agrees
        with a caller that is at TBB ``node`` of committed ``trace``
        (both ``None`` outside traces), so the caller's walk can stand in
        for the recorder's own from the next row on.  A recorder that
        keeps no cursor is always in step."""
        return True

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
