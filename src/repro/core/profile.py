"""Profile information attached to TEA states.

One of TEA's selling points is collecting *accurate* profile data for
traces without generating trace code: because each TBB has its own state,
duplicated copies of a block (``$$T1.next`` vs ``$$T2.next``) get separate
counters — "the ability to label duplicate instructions differently for
every copy of it in the running program" (Section 2).

:class:`TeaProfile` keeps per-state execution counts, per-edge counts and
per-trace enter/exit counts.
"""


class TeaProfile:
    """Execution counters keyed by TEA state ids."""

    def __init__(self):
        self.state_counts = {}
        self.state_instructions = {}
        self.edge_counts = {}
        self.trace_enters = {}
        self.trace_exits = {}
        self.trace_head_executions = {}

    # ------------------------------------------------------------------
    # recording (called by the replayer)
    # ------------------------------------------------------------------

    def record_block(self, state, instrs_dbt):
        """A block of ``instrs_dbt`` instructions just executed while the
        automaton was in ``state``."""
        sid = state.sid
        self.state_counts[sid] = self.state_counts.get(sid, 0) + 1
        self.state_instructions[sid] = (
            self.state_instructions.get(sid, 0) + instrs_dbt
        )
        tbb = state.tbb
        if tbb is not None and tbb.index == 0:
            trace_id = tbb.trace_id
            self.trace_head_executions[trace_id] = (
                self.trace_head_executions.get(trace_id, 0) + 1
            )

    def record_edge(self, source, destination):
        key = (source.sid, destination.sid)
        self.edge_counts[key] = self.edge_counts.get(key, 0) + 1
        source_trace = source.trace_id
        destination_trace = destination.trace_id
        if source_trace != destination_trace:
            if destination_trace is not None:
                self.trace_enters[destination_trace] = (
                    self.trace_enters.get(destination_trace, 0) + 1
                )
            if source_trace is not None:
                self.trace_exits[source_trace] = (
                    self.trace_exits.get(source_trace, 0) + 1
                )

    # ------------------------------------------------------------------
    # interrogation
    # ------------------------------------------------------------------

    def count_for(self, state):
        return self.state_counts.get(state.sid, 0)

    def exit_ratio(self, trace_id):
        """Side exits per head execution — Wimmer-style stability signal.

        A hot, stable trace loops through its head many times per exit
        (ratio near 0); a trace constantly falling out has ratio near 1.
        """
        heads = self.trace_head_executions.get(trace_id, 0)
        exits = self.trace_exits.get(trace_id, 0)
        if heads == 0:
            return 1.0 if exits else 0.0
        return min(exits / heads, 1.0)

    def hottest_states(self, limit=10):
        """``(sid, count)`` pairs, hottest first."""
        ranked = sorted(self.state_counts.items(), key=lambda item: -item[1])
        return ranked[:limit]

    def merge(self, other):
        """Accumulate another run's profile into this one."""
        for attribute in (
            "state_counts",
            "state_instructions",
            "trace_enters",
            "trace_exits",
            "trace_head_executions",
        ):
            mine = getattr(self, attribute)
            for key, value in getattr(other, attribute).items():
                mine[key] = mine.get(key, 0) + value
        for key, value in other.edge_counts.items():
            self.edge_counts[key] = self.edge_counts.get(key, 0) + value

    def __repr__(self):
        return "<TeaProfile %d states, %d edges>" % (
            len(self.state_counts),
            len(self.edge_counts),
        )
