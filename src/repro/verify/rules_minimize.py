"""Minimization rules (TEA050, TEA052-TEA053).

Minimized snapshots are stored content-addressed next to their
originals, so the minimizer's output crosses load boundaries.  This
family gates it.

- TEA050 checks the *provenance meta* of minimized snapshots (the
  ``minimized_from`` / ``minimize`` keys written by
  ``AutomatonStore.put_minimized``).  It requires only the ``snapshot``
  facet and reads the meta from the subject's one snapshot scan, so it
  runs wherever TEAB bytes are already verified — store gets, service
  preload, ``repro tools verify`` — without parsing them again.
- TEA052-TEA053 check a live :class:`~repro.minimize.MinimizationResult`
  (state-map soundness, budget invariants) and run through
  :func:`~repro.verify.api.verify_minimization`.  A state map that is a
  structure-preserving quotient (TEA052) also preserves the in-trace
  language: walking both automata from the same head keeps them in
  mapped states, so no separate language check is needed.
"""

from repro.minimize import MODES
from repro.verify.engine import Rule, register
from repro.verify.views import AutomatonView


class MinimizeProvenance(Rule):
    rule_id = "TEA050"
    name = "minimize-provenance"
    family = "minimize"
    description = (
        "A snapshot claiming minimization provenance (meta key "
        "'minimized_from') must carry a well-formed origin key and a "
        "consistent 'minimize' summary (mode, budget, state counts "
        "matching the snapshot itself)."
    )
    paper = "Section 5 (content-addressed snapshot reuse)"
    requires = ("snapshot",)

    def check(self, subject):
        scan = subject.snapshot_scan
        meta = scan.meta
        if (not scan.sound() or not isinstance(meta, dict)
                or "minimized_from" not in meta):
            return  # bytes the other rules reject, or no provenance
        origin = meta["minimized_from"]
        if (not isinstance(origin, str) or len(origin) != 64
                or any(ch not in "0123456789abcdef" for ch in origin)):
            yield self.diag(
                "meta 'minimized_from' is not a 64-hex content key: %r"
                % (origin,), origin=repr(origin),
            )
        summary = meta.get("minimize")
        if not isinstance(summary, dict):
            yield self.diag(
                "minimized snapshot carries no 'minimize' summary dict "
                "(got %r)" % type(summary).__name__,
            )
            return
        mode = summary.get("mode")
        if mode not in MODES:
            yield self.diag(
                "minimize summary mode %r is not one of %s"
                % (mode, "/".join(MODES)), mode=repr(mode),
            )
        budget = summary.get("budget")
        if budget is not None and (not isinstance(budget, int)
                                   or isinstance(budget, bool)
                                   or budget < 1):
            yield self.diag(
                "minimize summary budget must be null or a positive "
                "integer, got %r" % (budget,), budget=repr(budget),
            )
        before = summary.get("states_before")
        after = summary.get("states_after")
        for label, value in (("states_before", before),
                             ("states_after", after)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                yield self.diag(
                    "minimize summary %s must be a positive integer, "
                    "got %r" % (label, value),
                )
                return
        if after > before:
            yield self.diag(
                "minimize summary grew the automaton: states_before=%d "
                "< states_after=%d" % (before, after),
                states_before=before, states_after=after,
            )
        if after != scan.n_states:
            yield self.diag(
                "minimize summary states_after=%d disagrees with the "
                "snapshot's own state table (%d states)"
                % (after, scan.n_states),
                states_after=after, states=scan.n_states,
            )


class MinimizeStateMap(Rule):
    rule_id = "TEA052"
    name = "minimize-state-map"
    family = "minimize"
    description = (
        "The minimization state map must be a total, structure- "
        "preserving quotient: every original state maps to a live "
        "minimized state (or was spilled), transitions commute with "
        "the map, and the head registry keeps its entries and order."
    )
    paper = "Section 3 (Algorithm 1 state identity)"
    requires = ("minimization",)

    def check(self, subject):
        from repro.core.automaton import NTE_SID

        result = subject.minimization
        original = result.original
        minimized = result.tea
        state_map = result.state_map
        if len(state_map) != original.n_states:
            yield self.diag(
                "state map covers %d states but the original has %d"
                % (len(state_map), original.n_states),
            )
            return
        if state_map[NTE_SID] != NTE_SID:
            yield self.diag(
                "state map sends NTE to %r (must be %d)"
                % (state_map[NTE_SID], NTE_SID),
            )
        spilled = set(result.spilled)
        for state in original.states[1:]:
            mapped = state_map[state.sid]
            if mapped is None:
                if state.sid not in spilled:
                    yield self.diag(
                        "state %s maps to nothing but is not recorded "
                        "as spilled" % state.name, sid=state.sid,
                    )
                continue
            if not 0 < mapped < minimized.n_states:
                yield self.diag(
                    "state %s maps to out-of-range minimized sid %r"
                    % (state.name, mapped), sid=state.sid,
                )
                continue
            image = minimized.states[mapped]
            if image.tbb.start != state.tbb.start:
                yield self.diag(
                    "state %s (block %#x) merged into %s (block %#x): "
                    "merged states must represent the same code"
                    % (state.name, state.tbb.start, image.name,
                       image.tbb.start), sid=state.sid,
                )
            for label, dest in state.transitions.items():
                dest_mapped = state_map[dest.sid]
                got = image.transitions.get(label)
                if dest_mapped is None:
                    if got is not None:
                        yield self.diag(
                            "%s keeps a transition on %#x whose "
                            "original target %s was spilled"
                            % (image.name, label, dest.name),
                            sid=state.sid, label=label,
                        )
                elif got is None or got.sid != dest_mapped:
                    yield self.diag(
                        "transition %s --%#x--> %s does not commute "
                        "with the state map (image has %s)"
                        % (state.name, label, dest.name,
                           got.name if got is not None else "nothing"),
                        sid=state.sid, label=label,
                    )
        if list(minimized.heads) != list(original.heads):
            yield self.diag(
                "head registry entries or order changed: %s -> %s"
                % (list(original.heads), list(minimized.heads)),
            )
            return
        for entry, head in original.heads.items():
            mapped = state_map[head.sid]
            got = minimized.heads[entry]
            if mapped is None or got.sid != mapped:
                yield self.diag(
                    "head %#x maps to %s but the minimized registry "
                    "holds %s" % (entry, mapped, got.name), entry=entry,
                )


class MinimizeBudget(Rule):
    rule_id = "TEA053"
    name = "minimize-budget"
    family = "minimize"
    description = (
        "Budgeted minimization must respect its cap: at most 'budget' "
        "states, every head retained, every kept state reachable, and "
        "every spilled state actually gone."
    )
    paper = "Section 6 (bounded translation-cache analogy)"
    requires = ("minimization",)

    def check(self, subject):
        result = subject.minimization
        if result.budget is None:
            return
        minimized = result.tea
        if minimized.n_states > result.budget:
            yield self.diag(
                "minimized automaton has %d states, over the budget of "
                "%d" % (minimized.n_states, result.budget),
                states=minimized.n_states, budget=result.budget,
            )
        missing = [
            entry for entry in result.original.heads
            if entry not in minimized.heads
        ]
        if missing:
            yield self.diag(
                "budget spilled %d head state(s) (%s); heads are "
                "mandatory" % (
                    len(missing),
                    ", ".join("%#x" % entry for entry in missing[:4]),
                ),
            )
        view = AutomatonView.from_tea(minimized)
        unreachable = sorted(set(range(view.n_states)) - view.reachable())
        if unreachable:
            yield self.diag(
                "budget left %d unreachable state(s) behind (first: "
                "%s)" % (len(unreachable),
                         view.state_label(unreachable[0])),
            )
        alive = sum(
            1 for sid in result.spilled if result.state_map[sid] is not None
        )
        if alive:
            yield self.diag(
                "%d state(s) are recorded as spilled but still mapped"
                % alive,
            )


register(MinimizeProvenance())
register(MinimizeStateMap())
register(MinimizeBudget())
