"""Automaton-family rules (TEA003-TEA005).

These certify the Section 3 invariants: every state of the TEA hangs
off NTE, NTE itself models execution outside any trace, and the NTE
head registry mirrors the recorded trace entries (Algorithm 1 lines
15-17).  TEA003 and TEA004 run over
:class:`~repro.verify.views.AutomatonView`, so the object-graph ``TEA``
and the flat-table ``CompiledTea`` get identical checks.

Determinism and in-range targets need no rule of their own: the
object graph stores one destination per label and holds its states
by reference, and the compiled tables are checked for both by TEA030
(``tests/test_rule_matrix.py`` pins which rule catches which fault).
"""

from repro.verify.diagnostics import WARNING
from repro.verify.engine import Rule, register

# The family reads ``Subject.views``: loading the view module with the
# catalog keeps a process that imports the catalog up front (the
# server) from importing it later, mid-preload.
from repro.verify.views import NTE_SID


class AutomatonUnreachableState(Rule):
    rule_id = "TEA003"
    name = "automaton-unreachable-state"
    family = "automaton"
    severity = WARNING
    description = (
        "A TBB state cannot be reached from NTE via heads or "
        "transitions; it is dead weight in the dispatch tables."
    )
    paper = "Section 3, Figure 3 (all trace states hang off NTE)"
    requires = ("views",)

    def check(self, subject):
        for view in subject.views:
            reachable = view.reachable()
            for sid in range(view.n_states):
                if sid not in reachable:
                    yield self.diag(
                        "state %s is unreachable from NTE (%s)"
                        % (view.state_label(sid), view.kind),
                        location=view.state_label(sid),
                        representation=view.kind,
                    )


class AutomatonNteConsistency(Rule):
    rule_id = "TEA004"
    name = "automaton-nte-consistency"
    family = "automaton"
    description = (
        "The NTE state is malformed: flagged in-trace, carrying "
        "explicit transitions, or targeted by a head entry."
    )
    paper = "Section 3 (NTE models execution outside any trace)"
    requires = ("views",)

    def check(self, subject):
        for view in subject.views:
            if view.n_states < 1:
                yield self.diag(
                    "automaton has no states at all (%s)" % view.kind,
                    location="NTE",
                    representation=view.kind,
                )
                continue
            if view.in_trace[NTE_SID]:
                yield self.diag(
                    "NTE is flagged as an in-trace state (%s)" % view.kind,
                    location="NTE",
                    representation=view.kind,
                )
            if view.edges[NTE_SID]:
                yield self.diag(
                    "NTE carries %d explicit transitions; NTE edges must "
                    "come from the head registry (%s)"
                    % (len(view.edges[NTE_SID]), view.kind),
                    location="NTE",
                    representation=view.kind,
                )
            for entry, dest in view.heads:
                if dest == NTE_SID:
                    yield self.diag(
                        "head entry %#x targets NTE itself (%s)"
                        % (entry, view.kind),
                        location="heads",
                        entry=entry,
                        representation=view.kind,
                    )
                elif (0 <= dest < view.n_states
                        and not view.in_trace[dest]):
                    yield self.diag(
                        "head entry %#x targets %s, which is not an "
                        "in-trace state (%s)"
                        % (entry, view.state_label(dest), view.kind),
                        location="heads",
                        entry=entry,
                        representation=view.kind,
                    )


class AutomatonHeadMismatch(Rule):
    rule_id = "TEA005"
    name = "automaton-head-mismatch"
    family = "automaton"
    description = (
        "The NTE head registry disagrees with the recorded trace "
        "entries: a trace has no head, a head has no trace, or a head "
        "points at the wrong TBB."
    )
    paper = "Algorithm 1 lines 15-17 (one head per recorded trace)"
    requires = ("tea", "trace_set")

    def check(self, subject):
        tea = subject.tea
        trace_set = subject.trace_set
        for trace in trace_set:
            if not trace.tbbs:
                continue   # the trace family (TEA040) owns empty traces
            entry = trace.tbbs[0].block.start
            head = tea.heads.get(entry)
            if head is None:
                yield self.diag(
                    "trace T%d (entry %#x) has no head registration"
                    % (trace.trace_id, entry),
                    location="T%d" % trace.trace_id,
                    trace=trace.trace_id,
                    entry=entry,
                )
            elif head.tbb is None or (
                    head.tbb.trace_id != trace.trace_id
                    or head.tbb.index != 0):
                yield self.diag(
                    "head at %#x points to %s, not trace T%d's first TBB"
                    % (entry, head.name, trace.trace_id),
                    location="T%d" % trace.trace_id,
                    trace=trace.trace_id,
                    entry=entry,
                )
        recorded = {
            trace.tbbs[0].block.start for trace in trace_set if trace.tbbs
        }
        for entry, head in tea.heads.items():
            if entry not in recorded:
                yield self.diag(
                    "head entry %#x matches no recorded trace" % entry,
                    location="heads",
                    entry=entry,
                )


register(AutomatonUnreachableState())
register(AutomatonNteConsistency())
register(AutomatonHeadMismatch())
