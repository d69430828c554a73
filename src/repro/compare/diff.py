"""TEA-to-TEA structural diff and similarity.

Two recordings of the same program rarely build byte-identical
automata: a different hot threshold, recording limit, or minimization
pass moves trace boundaries, merges states, or retargets side exits.
The diff engine answers "what actually changed?" by aligning the two
automata on their **interned PC labels** — the one vocabulary both
sides share regardless of state numbering:

1. Heads are matched by entry PC (the head registry is keyed by the
   trace's entry address on both sides), and NTE matches NTE.
2. The match set grows breadth-first: when two matched states both
   transition on the same label, their destinations are paired —
   exactly how the replayer itself would co-execute the automata.
3. Everything the walk cannot pair is reported as added/removed
   states, added/removed/retargeted transitions, and head churn,
   plus a symmetric similarity score in ``[0, 1]``.

The alignment consumes :class:`~repro.verify.views.AutomatonView`, so
a TEA object graph, a :class:`~repro.core.compiled.CompiledTea`, and
raw TEAB bytes (via ``compile_tea_binary(data, verify=False)``) all
diff through the same code — no program image required.

``identical`` is intentionally strict: it holds exactly when both
automata have the same shape under the alignment (it is ``True`` for
any automaton diffed against itself, including across the object /
compiled representations).
"""

from repro.core.automaton import NTE_SID
from repro.obs import Observability
from repro.verify.views import AutomatonView


def _view(automaton):
    """Coerce a TEA / CompiledTea / AutomatonView to a view."""
    if isinstance(automaton, AutomatonView):
        return automaton
    if hasattr(automaton, "states") and hasattr(automaton, "heads"):
        return AutomatonView.from_tea(automaton)
    return AutomatonView.from_compiled(automaton)


class TeaDiff:
    """Structured outcome of :func:`diff_automata`.

    All counters are plain ints; ``to_json()`` is the wire/CLI shape
    and ``render_text()`` the human one.  ``matching`` maps matched state ids of *a* to their partner
    in *b* (it always contains ``NTE -> NTE``).
    """

    __slots__ = ("label_a", "label_b", "a", "b", "matching", "states",
                 "transitions", "heads", "similarity", "identical")

    def __init__(self, label_a, label_b, a, b, matching, states,
                 transitions, heads, similarity, identical):
        self.label_a = label_a
        self.label_b = label_b
        #: Per-side totals: {"states": n, "transitions": n, "heads": n}.
        self.a = a
        self.b = b
        self.matching = matching
        self.states = states
        self.transitions = transitions
        self.heads = heads
        self.similarity = similarity
        self.identical = identical

    def to_json(self):
        return {
            "a": dict(self.a, label=self.label_a),
            "b": dict(self.b, label=self.label_b),
            "states": dict(self.states),
            "transitions": dict(self.transitions),
            "heads": dict(self.heads),
            "similarity": self.similarity,
            "identical": self.identical,
        }

    def render_text(self):
        lines = [
            "tea diff: %s vs %s" % (self.label_a, self.label_b),
            "  a: %(states)d states, %(transitions)d transitions, "
            "%(heads)d heads" % self.a,
            "  b: %(states)d states, %(transitions)d transitions, "
            "%(heads)d heads" % self.b,
            "  states:      %d matched, %d removed, %d added" % (
                self.states["matched"], self.states["removed"],
                self.states["added"],
            ),
            "  transitions: %d matched, %d removed, %d added, "
            "%d retargeted" % (
                self.transitions["matched"], self.transitions["removed"],
                self.transitions["added"], self.transitions["retargeted"],
            ),
            "  heads:       %d matched, %d removed, %d added, "
            "%d retargeted" % (
                self.heads["matched"], self.heads["removed"],
                self.heads["added"], self.heads["retargeted"],
            ),
            "  similarity:  %.4f%s" % (
                self.similarity, "  (identical)" if self.identical else "",
            ),
        ]
        for side, key in ((self.label_a, "removed_names"),
                          (self.label_b, "added_names")):
            names = self.states[key]
            if names:
                shown = ", ".join(names[:8])
                if len(names) > 8:
                    shown += ", ... (%d total)" % len(names)
                lines.append("  only in %s: %s" % (side, shown))
        return "\n".join(lines)

    def __repr__(self):
        return "<TeaDiff %s vs %s similarity=%.4f%s>" % (
            self.label_a, self.label_b, self.similarity,
            " identical" if self.identical else "",
        )


def _align(va, vb):
    """Greedy BFS state alignment; returns (match_ab, match_ba)."""
    match_ab = {NTE_SID: NTE_SID}
    match_ba = {NTE_SID: NTE_SID}
    queue = []

    def pair(sa, sb):
        if sa not in match_ab and sb not in match_ba:
            match_ab[sa] = sb
            match_ba[sb] = sa
            queue.append((sa, sb))

    heads_b = dict(vb.heads)
    for entry, sa in va.heads:
        sb = heads_b.get(entry)
        if sb is not None:
            pair(sa, sb)
    cursor = 0
    while cursor < len(queue):
        sa, sb = queue[cursor]
        cursor += 1
        edges_b = dict(vb.edges[sb])
        for label, da in va.edges[sa]:
            db = edges_b.get(label)
            if db is not None:
                pair(da, db)
    return match_ab, match_ba


def diff_automata(a, b, label_a="a", label_b="b", obs=None):
    """Diff two automata; returns a :class:`TeaDiff`.

    ``a`` and ``b`` may each be a :class:`~repro.core.automaton.TEA`,
    a :class:`~repro.core.compiled.CompiledTea`, or a pre-built
    :class:`~repro.verify.views.AutomatonView` — mixing representations
    is fine (used by the tests to cross-check object vs compiled).
    """
    obs = obs if obs is not None else Observability()
    metrics = obs.metrics
    with metrics.timer("compare.run"):
        va, vb = _view(a), _view(b)
        match_ab, match_ba = _align(va, vb)

        removed_names = sorted(
            va.names[sid] for sid in range(va.n_states) if sid not in match_ab
        )
        added_names = sorted(
            vb.names[sid] for sid in range(vb.n_states) if sid not in match_ba
        )
        states = {
            "matched": len(match_ab),
            "removed": va.n_states - len(match_ab),
            "added": vb.n_states - len(match_ba),
            "removed_names": removed_names,
            "added_names": added_names,
        }

        trans = {"matched": 0, "removed": 0, "added": 0, "retargeted": 0}
        for sa in range(va.n_states):
            sb = match_ab.get(sa)
            if sb is None:
                trans["removed"] += len(va.edges[sa])
                continue
            edges_b = dict(vb.edges[sb])
            for label, da in va.edges[sa]:
                db = edges_b.get(label)
                if db is None:
                    trans["removed"] += 1
                elif match_ab.get(da) == db:
                    trans["matched"] += 1
                else:
                    trans["retargeted"] += 1
        for sb in range(vb.n_states):
            sa = match_ba.get(sb)
            if sa is None:
                trans["added"] += len(vb.edges[sb])
                continue
            labels_a = {label for label, _ in va.edges[sa]}
            trans["added"] += sum(
                1 for label, _ in vb.edges[sb] if label not in labels_a
            )

        heads = {"matched": 0, "removed": 0, "added": 0, "retargeted": 0,
                 "removed_entries": [], "added_entries": []}
        heads_b = dict(vb.heads)
        entries_a = set()
        for entry, sa in va.heads:
            entries_a.add(entry)
            sb = heads_b.get(entry)
            if sb is None:
                heads["removed"] += 1
                heads["removed_entries"].append(entry)
            elif match_ab.get(sa) == sb:
                heads["matched"] += 1
            else:
                heads["retargeted"] += 1
        for entry, _ in vb.heads:
            if entry not in entries_a:
                heads["added"] += 1
                heads["added_entries"].append(entry)

        totals_a = {
            "states": va.n_states,
            "transitions": sum(len(edges) for edges in va.edges),
            "heads": len(va.heads),
        }
        totals_b = {
            "states": vb.n_states,
            "transitions": sum(len(edges) for edges in vb.edges),
            "heads": len(vb.heads),
        }
        shared = states["matched"] + trans["matched"] + heads["matched"]
        weight = (sum(totals_a.values()) + sum(totals_b.values()))
        similarity = (2.0 * shared / weight) if weight else 1.0

        identical = (
            states["removed"] == 0 and states["added"] == 0
            and trans["removed"] == 0 and trans["added"] == 0
            and trans["retargeted"] == 0
            and heads["removed"] == 0 and heads["added"] == 0
            and heads["retargeted"] == 0
        )
        diff = TeaDiff(label_a, label_b, totals_a, totals_b, match_ab,
                       states, trans, heads, round(similarity, 6),
                       identical)
    metrics.counter("compare.runs").inc()
    metrics.counter("compare.states_removed").inc(states["removed"])
    metrics.counter("compare.states_added").inc(states["added"])
    return diff


def replay_delta(result_a, result_b):
    """Numeric deltas (b minus a) between two replay-report dicts.

    Accepts the shape produced by the service ``replay`` RPC /
    :class:`~repro.core.replay.TeaReplayer` reports: top-level numeric
    fields (``cycles``, ``coverage_pin`` ...) and the nested ``stats``
    counter dict.  Non-numeric and one-sided fields are skipped, so the
    helper is safe across report versions.
    """
    delta = {}
    for key in sorted(set(result_a) & set(result_b)):
        xa, xb = result_a[key], result_b[key]
        if isinstance(xa, bool) or isinstance(xb, bool):
            continue
        if isinstance(xa, (int, float)) and isinstance(xb, (int, float)):
            delta[key] = xb - xa
    stats_a = result_a.get("stats")
    stats_b = result_b.get("stats")
    if isinstance(stats_a, dict) and isinstance(stats_b, dict):
        delta["stats"] = {
            key: stats_b[key] - stats_a[key]
            for key in sorted(set(stats_a) & set(stats_b))
            if isinstance(stats_a[key], (int, float))
            and isinstance(stats_b[key], (int, float))
        }
    return delta
