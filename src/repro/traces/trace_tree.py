"""TT — Trace Trees (Gal & Franz).

A trace tree is anchored at a hot loop header.  Every recorded path starts
at the anchor and *must* end with a branch back to the anchor; side exits
taken later extend the tree with a fresh path from the exit point back to
the anchor, duplicating the shared tail.  Crucially, trace-tree paths
cannot contain cycles, so nested loops are **unrolled** into the path —
iteration-count variations of inner loops multiply with branch-path
variations, which is exactly why Table 1 shows TT exploding on branchy
integer codes (bzip2's 1.8 GB) while staying tiny on FP codes whose inner
loops iterate too many times to fit in a path (recording aborts at the
path limit, leaving only small inner-loop trees).

The recorder walks its trees alongside execution (a cursor over TBBs) to
detect side exits; extension recording is throttled by a per-exit counter
(``extension_threshold``) and the tree/total budgets in
:class:`~repro.traces.recorder.RecorderLimits` play the role of a bounded
code cache.
"""

from repro.cpu.events import EDGE_COND, EDGE_JMP, KIND_MASK, KINDS
from repro.traces.recorder import (
    STATE_CREATING,
    STATE_EXECUTING,
    TraceRecorder,
)

#: Give up on an anchor after this many aborted trunk recordings.
_MAX_TRUNK_ABORTS = 8

#: Default side-exit hotness before an extension is recorded.
DEFAULT_EXTENSION_THRESHOLD = 2

#: Flag-byte kinds of the *branch* cycles CTT aborts on.
_BRANCH_KINDS = (KINDS.index(EDGE_COND), KINDS.index(EDGE_JMP))


class _PathRecording:
    """An in-flight trunk or extension path."""

    __slots__ = ("trace", "parent_index", "blocks", "first_position")

    def __init__(self, trace, parent_index):
        self.trace = trace
        self.parent_index = parent_index  # None while recording a trunk
        self.blocks = []
        self.first_position = {}  # block start -> earliest path position

    @property
    def is_trunk(self):
        return self.parent_index is None

    def append(self, block):
        self.first_position.setdefault(block.start, len(self.blocks))
        self.blocks.append(block)

    def __len__(self):
        return len(self.blocks)


class TraceTreeRecorder(TraceRecorder):
    """Records anchored trace trees with tail duplication."""

    kind = "tt"

    #: CTT overrides: allow a path to terminate at a loop header already
    #: recorded on the path (link back instead of unrolling/aborting).
    header_termination = False

    def __init__(self, limits=None, on_trace=None,
                 extension_threshold=DEFAULT_EXTENSION_THRESHOLD):
        super().__init__(limits=limits, on_trace=on_trace)
        self.extension_threshold = extension_threshold
        self._cursor = None          # (trace, tbb_index) we are inside
        self._recording = None       # _PathRecording during CREATING
        self._exit_counters = {}     # (trace_id, node_index, target) -> count
        self._trunk_aborts = {}      # anchor -> aborted attempts
        self._saturated = set()      # trace_ids whose tree hit its cap
        self._tree_starts = {}       # trace_id -> {block start -> tbb index}

    # -- Executing ------------------------------------------------------

    def _observe_executing(self, block, next_start, code, backward):
        if next_start is None:  # program ended
            self._cursor = None
            return

        if self._cursor is not None:
            trace, index = self._cursor
            node = trace.tbbs[index]
            successor = node.successors.get(next_start)
            if successor is not None:
                self._cursor = (trace, successor)
                return
            if next_start == trace.entry:
                self._cursor = (trace, 0)
                return
            # Side exit from `node`.
            self._cursor = None
            if self._maybe_extend(trace, index, next_start):
                return

        entered = self.traces.trace_at(next_start)
        if entered is not None:
            self._cursor = (entered, 0)
            return

        if backward:
            self._maybe_start_trunk(next_start)

    def _maybe_start_trunk(self, anchor):
        if self.budget_exhausted or self._total_budget_left() <= 0:
            return
        if self.traces.has_entry(anchor):
            return
        if self._trunk_aborts.get(anchor, 0) >= _MAX_TRUNK_ABORTS:
            return
        if self._bump_hot_addr(anchor):
            pending = self.traces.new_trace(kind=self.kind, anchor=anchor)
            self._recording = _PathRecording(pending, None)
            self.state = STATE_CREATING

    def _maybe_extend(self, trace, node_index, target):
        """Side exit observed; start an extension when it is hot enough."""
        if self.budget_exhausted:
            return False
        if trace.trace_id in self._saturated:
            return False
        if len(trace) >= self.limits.max_tree_tbbs:
            self._saturated.add(trace.trace_id)
            return False
        if self._total_budget_left() <= 0:
            return False
        key = (trace.trace_id, node_index, target)
        count = self._exit_counters.get(key, 0) + 1
        if count < self.extension_threshold:
            self._exit_counters[key] = count
            return False
        self._exit_counters[key] = 0
        self._recording = _PathRecording(trace, node_index)
        self.state = STATE_CREATING
        return True

    # -- Creating -------------------------------------------------------

    def _observe_creating(self, block, next_start, code, backward):
        recording = self._recording
        recording.append(block)

        if next_start is None:
            self._abort()
            return
        anchor = recording.trace.anchor

        if next_start == anchor:
            self._commit_path(link=None)
            return

        if self.header_termination and backward:
            # CTT: a back-edge target is a loop header; terminate at one
            # already on this path, or (for extensions) anywhere in the
            # tree — "branch targets within a path [may] be any loop
            # header in that path".
            position = recording.first_position.get(next_start)
            if position is not None:
                self._commit_path(link=("path", position))
                return
            tree_index = self._tree_starts.get(
                recording.trace.trace_id, {}
            ).get(next_start)
            if tree_index is not None:
                self._commit_path(link=("tree", tree_index))
                return
            if (code & KIND_MASK) in _BRANCH_KINDS:
                # A *branch* cycle we cannot close compactly: abort rather
                # than unroll.  Backward-landing calls/returns/indirects
                # are not loop structure; recording continues through them
                # (how else would a dispatch loop's callees be covered).
                self._abort()
                return

        # Plain TT keeps recording through inner back edges: the inner
        # loop unrolls into the path until a limit trips.
        if len(recording) >= self.limits.max_path_blocks:
            self._abort()
            return
        tree_size = len(recording.trace) + len(recording)
        if tree_size >= self.limits.max_tree_tbbs:
            self._saturated.add(recording.trace.trace_id)
            self._abort()
            return
        if self._total_budget_left() <= len(recording):
            self._abort()

    def _commit_path(self, link):
        """Commit the path; ``link`` is None (anchor), ("path", pos) for a
        link-back within the recorded path, or ("tree", index) for a CTT
        link into an existing tree node."""
        recording = self._recording
        trace = recording.trace
        base = len(trace.tbbs)
        starts = self._tree_starts.setdefault(trace.trace_id, {})
        for offset, block in enumerate(recording.blocks):
            trace.add_block(block)
            starts.setdefault(block.start, base + offset)
        chain_start = base
        if not recording.is_trunk:
            trace.add_edge(recording.parent_index, base)
        for offset in range(len(recording.blocks) - 1):
            trace.add_edge(chain_start + offset, chain_start + offset + 1)
        last = chain_start + len(recording.blocks) - 1
        if link is None:
            target_index = 0  # back to the anchor/root
        elif link[0] == "path":
            target_index = chain_start + link[1]
        else:
            target_index = link[1]
        trace.add_edge(last, target_index)
        if recording.is_trunk:
            self._commit(trace)
        else:
            # An extension grows a tree that is already committed.
            self.committed_tbbs += len(recording.blocks)
        self._recording = None
        self.state = STATE_EXECUTING
        # Execution is now at the link target; resume the cursor there.
        self._cursor = (trace, target_index)

    def _abort(self):
        recording = self._recording
        if recording.is_trunk:
            anchor = recording.trace.anchor
            self._trunk_aborts[anchor] = self._trunk_aborts.get(anchor, 0) + 1
        self._recording = None
        self._cursor = None
        self.state = STATE_EXECUTING

    def _finish_pending(self):
        if self._recording is not None:
            self._abort()
