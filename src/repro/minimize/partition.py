"""Semantics-preserving TEA minimization by partition refinement.

Recorded automata carry real redundancy: trace recorders (MRET tails,
tree paths) duplicate the same basic-block suffixes across traces, and
Algorithm 1 faithfully lifts every duplicate into its own state.  The
minimizer collapses that redundancy with Moore/Hopcroft-style partition
refinement over :class:`~repro.core.automaton.TeaState` transition
signatures: states are grouped, the groups are split until every group
is *stable* (all members transition, label for label, into the same
groups), and the quotient automaton keeps one representative per group.
Unreachable states are dropped along the way, so minimized automata are
always ``verify --strict`` clean.

Replay bit-exactness
--------------------

The quotient preserves the automaton's language by construction, but
the paper's Table 4 accounting is finer than language: the replayer
keys its per-state **local caches** by state id, and cache contents are
populated only on directory hits — i.e. only for labels that are trace
entries.  Merging two states that can both side-exit onto a trace-entry
label would let one state's compulsory cache miss warm the other's
cache, drifting ``cache_hits``/``cache_misses`` (and the cache /
directory / enter cost charges) under the two Local configurations.

Two modes resolve this:

- ``"exact"`` (default): a state whose possible uncovered exits include
  a trace-entry label — or are statically unknown (``ret`` / indirect
  terminator) — is *pinned* into a singleton group before refinement
  starts.  Merged groups therefore never insert into their caches, and
  replay statistics, coverage and the cost breakdown are **bit-exact**
  against the original on all four Table 4 configurations under both
  replay walks, the compiled engine and the ``step()`` oracle
  (asserted by ``tests/test_minimize.py`` and the CI minimize smoke).
- ``"aggressive"``: the full quotient.  Bit-exact under the two
  No-Local configurations; under Local configurations the cache and
  directory counters may legitimately drift while blocks, coverage,
  in-trace hits, trace enters/exits and NTE probes stay exact.

Head states (Algorithm 1 lines 15-17) are never merged: the TEA005
invariant ties each trace's entry to the state of *its own* TBB 0, so
every head stays the singleton representative of its group, the head
registry keeps its entries **and insertion order** (the directory's
probe-unit accounting depends on it), and minimized snapshots load
through TEAB / :class:`~repro.core.compiled.CompiledTea` / the JIT
engine unchanged.

Budgeted mode (``budget=N``) additionally caps the minimized automaton
at ``N`` states, spilling the coldest groups entirely: their states
disappear and transitions toward them fall back to the automaton's
generic default (directory probe, then NTE) — the same graceful
degradation a bounded code cache exhibits.  Heads are never spilled
and orphaned states are pruned transitively, so the budget invariants
(rule TEA053) hold by construction.
"""

from repro.core.automaton import NTE_SID, TEA
from repro.errors import TeaError
from repro.obs import Observability

#: Supported minimization modes (see the module docstring).
MODES = ("exact", "aggressive")


def state_cache_safe(state, heads):
    """True when merging ``state`` cannot perturb local-cache counters.

    Cache inserts happen only on directory hits, i.e. for labels in the
    head registry.  A state is cache-safe when none of its possible
    *uncovered* exits can be such a label: every statically known exit
    candidate either has an explicit transition (in-trace or linked —
    never a cache probe) or misses the directory.  A ``ret``/indirect
    terminator makes the exit target statically unknown, which is only
    safe when there are no trace entries to hit at all.
    """
    for label in state.tbb.exit_labels():
        if label is None:
            if heads:
                return False
            continue
        if label in state.transitions:
            continue
        if label in heads:
            return False
    return True


def mergeable_estimate(edge_labels, head_sids):
    """First-order upper bound on mergeable states (``tea info``).

    ``edge_labels`` lists, per state id (index 0 = NTE), the state's
    outgoing transition labels; ``head_sids`` names the head states,
    which never merge.  Two states can only ever merge when their label
    sets agree, so grouping by label tuple and counting the surplus
    members is a cheap optimistic estimate of what full refinement
    could collapse — refinement can only split these groups further.
    """
    groups = {}
    for sid in range(1, len(edge_labels)):
        if sid in head_sids:
            continue
        key = tuple(sorted(edge_labels[sid]))
        groups[key] = groups.get(key, 0) + 1
    return sum(count - 1 for count in groups.values() if count > 1)


class MinimizationResult:
    """Outcome of one :func:`minimize_tea` run.

    ``state_map[old_sid]`` is the minimized state id the original state
    collapsed into, or ``None`` when budget mode spilled it.  The
    ``original`` automaton is retained so verification (rules
    TEA052-TEA053) and diffing can compare both sides.
    """

    __slots__ = ("original", "tea", "state_map", "mode", "budget",
                 "spilled", "states_before", "states_after",
                 "transitions_before", "transitions_after")

    def __init__(self, original, tea, state_map, mode, budget, spilled):
        self.original = original
        self.tea = tea
        self.state_map = state_map
        self.mode = mode
        self.budget = budget
        #: Original state ids dropped by the budget (empty otherwise).
        self.spilled = spilled
        self.states_before = original.n_states
        self.states_after = tea.n_states
        self.transitions_before = original.n_transitions
        self.transitions_after = tea.n_transitions

    @property
    def merged(self):
        """Original states collapsed into another state's identity."""
        return self.states_before - self.states_after - len(self.spilled)

    @property
    def state_reduction(self):
        """Fraction of states removed (0.0 when nothing merged)."""
        before = self.states_before
        return (before - self.states_after) / before if before else 0.0

    def describe(self):
        """JSON-able summary (CLI output, snapshot provenance meta)."""
        return {
            "mode": self.mode,
            "budget": self.budget,
            "states_before": self.states_before,
            "states_after": self.states_after,
            "transitions_before": self.transitions_before,
            "transitions_after": self.transitions_after,
            "merged": self.merged,
            "spilled": len(self.spilled),
            "heads": self.tea.n_traces,
            "state_reduction": round(self.state_reduction, 4),
        }

    def __repr__(self):
        return "<MinimizationResult %s %d->%d states (%d spilled)>" % (
            self.mode, self.states_before, self.states_after,
            len(self.spilled),
        )


def _initial_partition(tea, mode, head_sids):
    """Group states that could conceivably merge; see module docstring.

    Returns ``class_of`` (state id -> group id; NTE is group 0).  The
    grouping key carries the block's start PC and the outgoing label
    set — states representing different code, or reacting to different
    labels, can never be bisimilar in a way replay accounting accepts —
    and exact mode pins cache-unsafe states into singletons.
    """
    class_of = [0] * tea.n_states
    keys = {}
    heads = tea.heads
    for state in tea.states[1:]:
        if state.sid in head_sids:
            key = ("head", state.sid)
        elif mode == "exact" and not state_cache_safe(state, heads):
            key = ("pinned", state.sid)
        else:
            key = ("block", state.tbb.start, tuple(sorted(state.transitions)))
        group = keys.get(key)
        if group is None:
            group = keys[key] = len(keys) + 1
        class_of[state.sid] = group
    return class_of, len(keys) + 1


def _refine(tea, class_of, n_groups):
    """Split groups until stable (Moore's algorithm; the automata are
    small enough that Hopcroft's worklist would be pure overhead)."""
    while True:
        signatures = {}
        refined = [0] * tea.n_states
        for state in tea.states[1:]:
            signature = (
                class_of[state.sid],
                tuple(sorted(
                    (label, class_of[dest.sid])
                    for label, dest in state.transitions.items()
                )),
            )
            group = signatures.get(signature)
            if group is None:
                group = signatures[signature] = len(signatures) + 1
            refined[state.sid] = group
        if len(signatures) + 1 == n_groups:
            return class_of, n_groups
        class_of, n_groups = refined, len(signatures) + 1


def _select_groups(tea, class_of, members, head_sids, budget, hotness):
    """Which groups survive the budget (all of them when ``budget`` is
    None); orphaned groups are pruned transitively either way."""
    head_groups = {class_of[sid] for sid in head_sids}
    kept = set(members)
    if budget is not None:
        floor = 1 + len(head_groups)
        if not isinstance(budget, int) or budget < floor:
            raise TeaError(
                "budget must be an integer >= %d (NTE plus %d head "
                "state(s)); got %r" % (floor, len(head_groups), budget)
            )

        def rank(group):
            # Hotter first, then bigger merged groups (states the
            # recorder produced more often), then stable by sid.
            return (
                -max(hotness.get(state.sid, 0) for state in members[group]),
                -len(members[group]),
                members[group][0].sid,
            )

        # Grow greedily from the head classes so every kept class stays
        # reachable and the budget is actually used: repeatedly admit
        # the best-ranked class adjacent to the kept set.
        kept = set(head_groups)
        fringe = set()

        def expand(group):
            for dest in members[group][0].transitions.values():
                dest_group = class_of[dest.sid]
                if dest_group and dest_group not in kept:
                    fringe.add(dest_group)

        for group in head_groups:
            expand(group)
        while len(kept) < budget - 1 and fringe:
            best = min(fringe, key=rank)
            fringe.discard(best)
            kept.add(best)
            expand(best)
    # Transitive reachability from the heads (the only NTE entrances):
    # budget spills — or dead weight already present in the source —
    # must not leave TEA003-unreachable states behind.
    representative = {
        group: states[0] for group, states in members.items()
    }
    reachable = set()
    frontier = [group for group in head_groups if group in kept]
    reachable.update(frontier)
    while frontier:
        group = frontier.pop()
        for dest in representative[group].transitions.values():
            dest_group = class_of[dest.sid]
            if dest_group in kept and dest_group not in reachable:
                reachable.add(dest_group)
                frontier.append(dest_group)
    return reachable


def minimize_tea(tea, mode="exact", budget=None, hotness=None, obs=None):
    """Minimize ``tea``; returns a :class:`MinimizationResult`.

    Parameters
    ----------
    tea:
        The automaton to minimize (left untouched).
    mode:
        ``"exact"`` (replay-bit-exact, the default) or ``"aggressive"``
        (full quotient); see the module docstring.
    budget:
        Optional cap on the minimized state count (including NTE).
        Must leave room for NTE plus every head state.
    hotness:
        Optional mapping of original state id -> weight used to rank
        spill victims under a budget (e.g. profile execution counts).
        Without it, larger merged groups — states the recorder produced
        more often — are considered hotter.
    obs:
        Optional :class:`~repro.obs.Observability`; the pass reports
        ``minimize.*`` counters and the ``minimize.run`` timer.
    """
    if mode not in MODES:
        raise ValueError(
            "mode must be one of %s" % ", ".join(repr(name) for name in MODES)
        )
    obs = obs if obs is not None else Observability()
    metrics = obs.metrics
    with metrics.timer("minimize.run"):
        head_sids = {head.sid for head in tea.heads.values()}
        class_of, n_groups = _initial_partition(tea, mode, head_sids)
        class_of, n_groups = _refine(tea, class_of, n_groups)

        members = {}
        for state in tea.states[1:]:
            members.setdefault(class_of[state.sid], []).append(state)
        kept = _select_groups(tea, class_of, members, head_sids, budget,
                              hotness or {})

        # Quotient: one representative per surviving group, renumbered
        # in original sid order so the layout stays deterministic.
        minimized = TEA()
        new_state_of = {}
        order = sorted(kept, key=lambda group: members[group][0].sid)
        for group in order:
            new_state_of[group] = minimized.add_tbb_state(
                members[group][0].tbb
            )
        for group in order:
            source = new_state_of[group]
            for label, dest in members[group][0].transitions.items():
                target = new_state_of.get(class_of[dest.sid])
                if target is not None:
                    minimized.add_transition(source, label, target)
        # Head registry: same entries, same insertion order — the
        # lookup directory's shape (and probe-unit accounting) is a
        # function of both.
        for entry, head in tea.heads.items():
            minimized.heads[entry] = new_state_of[class_of[head.sid]]

        state_map = [None] * tea.n_states
        state_map[NTE_SID] = NTE_SID
        spilled = []
        for state in tea.states[1:]:
            kept_state = new_state_of.get(class_of[state.sid])
            if kept_state is None:
                spilled.append(state.sid)
            else:
                state_map[state.sid] = kept_state.sid

        result = MinimizationResult(tea, minimized, state_map, mode,
                                    budget, spilled)
    metrics.counter("minimize.runs").inc()
    metrics.counter("minimize.merged_states").inc(result.merged)
    metrics.counter("minimize.spilled_states").inc(len(spilled))
    metrics.set_gauge("minimize.states_before", result.states_before)
    metrics.set_gauge("minimize.states_after", result.states_after)
    return result
