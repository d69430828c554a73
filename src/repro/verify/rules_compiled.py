"""Compiled-lowering rules (TEA030, TEA032).

:class:`~repro.core.compiled.CompiledTea` is the CSR lowering of the
automaton; these rules certify the tables themselves (offsets sorted
and in-bounds, per-state label runs sorted, every state id in range)
and — when the source automaton is also at hand — that the lowering is
structurally equivalent to a fresh ``from_tea`` pass.  The PC intern
table needs no rule: the constructor derives it from the tables, and
the one table adopted as stored (a v2 snapshot's label pool) is
re-derived by the deep snapshot scan (TEA024).

:func:`structural_diagnostics` is the single source of truth for the
table-shape checks: ``CompiledTea._validate`` calls it at construction
time (raising :class:`~repro.errors.VerificationError` on the first
blocking finding), and the :class:`CompiledOffsets` rule runs the same
code plus the ordering checks the constructor deliberately skips (a
replayer tolerates unsorted runs — ``successor_maps`` builds dicts —
but the TEAB codec and the binary-search dispatch path do not).
"""

from repro.verify.diagnostics import Diagnostic, ERROR
from repro.verify.engine import Rule, register


def structural_diagnostics(compiled, check_order=False):
    """Yield diagnostics for malformed compiled tables.

    With ``check_order=False`` (the constructor contract) only the
    shape/bounds invariants are checked — exactly the historical
    ``_validate`` set.  ``check_order=True`` adds offset monotonicity
    and per-state label sortedness (rule TEA030's full set).
    """

    def diag(message, **data):
        return Diagnostic("TEA030", ERROR, message, data=data or None)

    from repro.core.automaton import NTE_SID

    n_states = compiled.n_states
    if n_states < 1:
        yield diag("compiled TEA needs at least the NTE state")
        return
    if len(compiled.tbb_flag) != n_states:
        yield diag("tbb_flag length != n_states")
        return
    if compiled.tbb_flag[NTE_SID]:
        yield diag("NTE must not be flagged in-trace")
    if len(compiled.trans_offset) != n_states + 1:
        yield diag("trans_offset must have n_states + 1 entries")
        return
    if compiled.trans_offset[0] != 0:
        yield diag("trans_offset must start at 0")
    if compiled.trans_offset[-1] != len(compiled.trans_labels):
        yield diag("trans_offset must end at len(trans_labels)")
    if len(compiled.trans_labels) != len(compiled.trans_dest):
        yield diag("trans_labels/trans_dest length mismatch")
    for sid in compiled.trans_dest:
        if not 0 <= sid < n_states:
            yield diag("transition to unknown state %d" % sid, dest=sid)
    if len(compiled.head_entries) != len(compiled.head_sids):
        yield diag("head_entries/head_sids length mismatch")
    for sid in compiled.head_sids:
        if not 0 < sid < n_states:
            yield diag("head refers to unknown state %d" % sid, dest=sid)
    if len(set(compiled.head_entries)) != len(compiled.head_entries):
        yield diag("duplicate head entry address")
    if (len(compiled.instrs_dbt) != n_states
            or len(compiled.instrs_pin) != n_states):
        yield diag("metadata arrays must have n_states entries")

    if not check_order:
        return
    offsets = compiled.trans_offset
    for sid in range(n_states):
        if offsets[sid] > offsets[sid + 1]:
            yield diag(
                "trans_offset decreases at sid=%d (%d -> %d)"
                % (sid, offsets[sid], offsets[sid + 1]),
                sid=sid,
            )
            continue
        low = max(0, min(offsets[sid], len(compiled.trans_labels)))
        high = max(low, min(offsets[sid + 1], len(compiled.trans_labels)))
        run = compiled.trans_labels[low:high]
        for position in range(1, len(run)):
            if run[position] <= run[position - 1]:
                yield diag(
                    "sid=%d transition labels are not strictly "
                    "increasing (%#x after %#x)"
                    % (sid, run[position], run[position - 1]),
                    sid=sid,
                )


class CompiledOffsets(Rule):
    rule_id = "TEA030"
    name = "compiled-offsets"
    family = "compiled"
    description = (
        "The CSR tables are malformed: offsets not monotone or out of "
        "bounds, per-state label runs unsorted, dangling state ids, or "
        "mismatched array lengths."
    )
    paper = "Section 4.2 (flat dispatch tables)"
    requires = ("compiled",)

    def check(self, subject):
        return structural_diagnostics(subject.compiled, check_order=True)


class CompiledEquivalence(Rule):
    rule_id = "TEA032"
    name = "compiled-equivalence"
    family = "compiled"
    description = (
        "The compiled lowering is not structurally equivalent to the "
        "source automaton it claims to encode."
    )
    paper = "Section 4.2 (the lowering preserves the automaton)"
    requires = ("compiled", "tea")

    def check(self, subject):
        from repro.core.compiled import CompiledTea

        try:
            reference = CompiledTea.from_tea(subject.tea)
        except ValueError as error:
            yield self.diag(
                "source automaton does not lower cleanly: %s" % error,
            )
            return
        compiled = subject.compiled
        if not reference.structurally_equal(compiled):
            details = []
            if reference.n_states != compiled.n_states:
                details.append(
                    "states %d != %d"
                    % (compiled.n_states, reference.n_states))
            if reference.trans_labels != compiled.trans_labels:
                details.append("transition labels differ")
            if reference.trans_dest != compiled.trans_dest:
                details.append("transition destinations differ")
            if reference._head_map != compiled._head_map:
                details.append("head registries differ")
            if reference.tbb_flag != compiled.tbb_flag:
                details.append("in-trace flags differ")
            yield self.diag(
                "compiled tables do not match a fresh from_tea "
                "lowering of the source automaton (%s)"
                % ("; ".join(details) or "layout differs"),
            )


register(CompiledOffsets())
register(CompiledEquivalence())
