"""Phase detection from trace stability (Wimmer et al., cited in §5).

"A program phase is identified when the created traces are stable (i.e.,
there is a low trace exit ratio).  Whenever program execution start to
take side exits more often, the program is said to be ... between
phases."

:class:`PhaseDetector` hooks into the ``step()`` walk
(``TeaReplayer.on_step``), maintains a sliding window of block
transitions, and classifies each window as *stable* (exit ratio below
the threshold) or *unstable*.  Consecutive stable windows dominated by
the same trace set form a :class:`Phase`.
"""


class Phase:
    """One detected stable phase."""

    __slots__ = ("start_block", "end_block", "dominant_traces")

    def __init__(self, start_block, end_block, dominant_traces):
        self.start_block = start_block
        self.end_block = end_block
        self.dominant_traces = dominant_traces

    @property
    def length(self):
        return self.end_block - self.start_block

    def __repr__(self):
        return "<Phase blocks %d..%d traces=%s>" % (
            self.start_block,
            self.end_block,
            sorted(self.dominant_traces),
        )


class PhaseDetector:
    """Sliding-window trace-exit-ratio phase detector.

    Parameters
    ----------
    window:
        Window length in block transitions.
    exit_threshold:
        A window is *stable* when (side exits) / (window blocks) is below
        this value.
    min_phase_windows:
        Stable windows needed before a phase is opened.

    Attach with ``replayer.on_step = detector.on_step`` on a
    :class:`~repro.core.replay.TeaReplayer`, drive its ``step()`` over
    the run's transitions (e.g. ``ExecutionStream.record(program)
    .block_transitions(...)``) and read ``detector.phases`` after the
    run (call :meth:`finish` first).
    """

    def __init__(self, window=256, exit_threshold=0.08, min_phase_windows=2):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.exit_threshold = exit_threshold
        self.min_phase_windows = min_phase_windows
        self.phases = []
        self.windows = []  # (exit_ratio, dominant_trace_ids) per window
        self._blocks = 0
        self._window_blocks = 0
        self._window_exits = 0
        self._window_trace_blocks = {}
        self._open_phase_start = None
        self._open_phase_traces = set()
        self._stable_run = 0

    def on_step(self, previous_state, new_state, transition):
        """Replayer observer; see module docstring."""
        self._blocks += 1
        self._window_blocks += 1
        previous_trace = previous_state.trace_id
        if previous_trace is not None:
            count = self._window_trace_blocks.get(previous_trace, 0)
            self._window_trace_blocks[previous_trace] = count + 1
            if new_state.trace_id != previous_trace:
                self._window_exits += 1
        if self._window_blocks >= self.window:
            self._close_window()

    def _close_window(self):
        blocks = self._window_blocks
        ratio = self._window_exits / blocks if blocks else 0.0
        cutoff = 0.5 * blocks
        dominant = frozenset(
            trace_id
            for trace_id, count in self._window_trace_blocks.items()
            if count >= cutoff
        )
        self.windows.append((ratio, dominant))
        stable = ratio <= self.exit_threshold and dominant
        if stable:
            self._stable_run += 1
            if self._open_phase_start is None:
                if self._stable_run >= self.min_phase_windows:
                    start = self._blocks - self._stable_run * self.window
                    self._open_phase_start = max(start, 0)
                    self._open_phase_traces = set(dominant)
            else:
                previous = self._open_phase_traces
                if previous and dominant and not (previous & dominant):
                    # Still stable but a different trace set: new phase.
                    self._end_phase(self._blocks - self.window)
                    self._open_phase_start = self._blocks - self.window
                    self._open_phase_traces = set(dominant)
                else:
                    self._open_phase_traces |= dominant
        else:
            self._stable_run = 0
            if self._open_phase_start is not None:
                self._end_phase(self._blocks - blocks)
        self._window_blocks = 0
        self._window_exits = 0
        self._window_trace_blocks = {}

    def _end_phase(self, end_block):
        if end_block > self._open_phase_start:
            self.phases.append(
                Phase(self._open_phase_start, end_block,
                      frozenset(self._open_phase_traces))
            )
        self._open_phase_start = None
        self._open_phase_traces = set()

    def finish(self):
        """Flush the trailing window/phase; returns the phase list."""
        if self._window_blocks:
            self._close_window()
        if self._open_phase_start is not None:
            self._end_phase(self._blocks)
        return self.phases

    @property
    def n_transitions(self):
        """Phase transitions observed (phases - 1, floored at 0)."""
        return max(len(self.phases) - 1, 0)
