"""Uniform read-only views over the two automaton representations.

The object-graph :class:`~repro.core.automaton.TEA` and the flat-table
:class:`~repro.core.compiled.CompiledTea` encode the same DFA, so the
automaton rule family (reachability, NTE consistency) checks both with
the same code.
:class:`AutomatonView` is the adapter: integer state ids, a transition
list per state as ``(label, dest_sid)`` pairs in storage order, the
head registry as ``(entry, sid)`` pairs, and in-trace flags.  Nothing
here mutates the underlying automaton.
"""

from __future__ import annotations

from repro.core.automaton import NTE_SID


class AutomatonView:
    """One automaton representation flattened for rule checking."""

    __slots__ = ("kind", "n_states", "in_trace", "names", "edges",
                 "heads")

    def __init__(self, kind, n_states, in_trace, names, edges, heads):
        #: ``"tea"`` (object graph) or ``"compiled"`` (flat tables).
        self.kind = kind
        self.n_states = n_states
        #: ``in_trace[sid]`` — truthy when the state carries a TBB.
        self.in_trace = in_trace
        #: ``names[sid]`` — display name (``NTE``, ``$$T1.main`` ...).
        self.names = names
        #: ``edges[sid]`` — list of ``(label, dest_sid)`` in storage
        #: order (dict insertion order / CSR slice order).
        self.edges = edges
        #: Head registry as ``(entry_pc, head_sid)`` in storage order.
        self.heads = heads

    @classmethod
    def from_tea(cls, tea):
        n_states = tea.n_states
        names = [state.name for state in tea.states]
        in_trace = [state.tbb is not None for state in tea.states]
        edges = [
            [(label, dest.sid) for label, dest in state.transitions.items()]
            for state in tea.states
        ]
        heads = [(entry, head.sid) for entry, head in tea.heads.items()]
        return cls("tea", n_states, in_trace, names, edges, heads)

    @classmethod
    def from_compiled(cls, compiled):
        n_states = compiled.n_states
        offsets = compiled.trans_offset
        labels = compiled.trans_labels
        dests = compiled.trans_dest
        edges = []
        for sid in range(n_states):
            low = offsets[sid] if sid < len(offsets) else 0
            high = offsets[sid + 1] if sid + 1 < len(offsets) else low
            low = max(0, min(low, len(labels)))
            high = max(low, min(high, len(labels)))
            edges.append(list(zip(labels[low:high], dests[low:high])))
        names = [
            "NTE" if sid == NTE_SID else "s%d" % sid
            for sid in range(n_states)
        ]
        heads = list(zip(compiled.head_entries, compiled.head_sids))
        return cls("compiled", n_states, list(compiled.tbb_flag), names,
                   edges, heads)

    # ------------------------------------------------------------------

    def state_label(self, sid):
        """Stable display handle for diagnostics: ``name(sid)``."""
        if 0 <= sid < len(self.names):
            return "%s(sid=%d)" % (self.names[sid], sid)
        return "sid=%d" % sid

    def reachable(self):
        """State ids reachable from NTE via transitions and heads."""
        seen = {NTE_SID}
        frontier = [NTE_SID]
        head_sids = [
            sid for _, sid in self.heads if 0 <= sid < self.n_states
        ]
        seen.update(head_sids)
        frontier.extend(head_sids)
        while frontier:
            sid = frontier.pop()
            for _, dest in self.edges[sid]:
                if 0 <= dest < self.n_states and dest not in seen:
                    seen.add(dest)
                    frontier.append(dest)
        return seen

    def __repr__(self):
        return "<AutomatonView %s states=%d heads=%d>" % (
            self.kind, self.n_states, len(self.heads),
        )
