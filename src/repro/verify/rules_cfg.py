"""CFG-consistency rules (TEA010-TEA011).

A recorded trace claims to be a path the program actually executed, so
every in-trace edge must be *statically feasible*: the label (the
successor block's start PC) must be one of the terminator's possible
successors in the :mod:`repro.cfg` graph.  A ``hlt`` has no feasible
successor, so TEA010 also rejects a trace that runs past a machine
halt.  Side-exit targets likewise must be real program addresses.

Both rules need the trace set **and** the program image the
traces were recorded against (``Subject.program``); without a program
they simply do not run.  When a snapshot's traces cannot even be
decoded against the program (``Subject.program_mismatch``: some trace
block is not its code), TEA010 reports that instead.
"""

from repro.verify.engine import Rule, register


def _allowed_labels(program, block):
    """Statically feasible successor PCs of ``block``.

    Returns ``None`` when the terminator's targets are statically
    unknown (``ret`` / indirect transfers) — any real instruction
    address is then acceptable.
    """
    terminator = block.terminator
    if terminator is None:
        return frozenset()
    if terminator.is_control and (terminator.is_ret
                                  or terminator.is_indirect):
        return None
    if terminator.is_control and terminator.opcode == "hlt":
        return frozenset()
    if not terminator.is_control:
        return frozenset((terminator.fallthrough,))
    return frozenset(program.static_successors(terminator))


class CfgInfeasibleEdge(Rule):
    rule_id = "TEA010"
    name = "cfg-infeasible-edge"
    family = "cfg"
    description = (
        "An in-trace edge takes a transition the program's static CFG "
        "does not allow, or a trace block is not code of the program "
        "at all; the trace is not a feasible path."
    )
    paper = "Section 2, Figure 2 (traces are paths through the CFG)"
    requires = ("program",)

    def check(self, subject):
        from repro.cfg.cfg import build_cfg

        if subject.trace_set is None:
            if subject.program_mismatch is not None:
                yield self.diag(
                    "the snapshot's traces do not decode against the "
                    "program: %s" % subject.program_mismatch,
                    location=subject.source,
                )
            return
        program = subject.program
        cfg = build_cfg(program)
        for trace in subject.trace_set:
            for tbb in trace:
                if not program.has_instruction(tbb.block.start):
                    yield self.diag(
                        "%s starts at %#x, which is not an instruction "
                        "in the program" % (tbb.name, tbb.block.start),
                        location=tbb.name,
                        trace=trace.trace_id,
                        start=tbb.block.start,
                    )
                    continue
                allowed = _allowed_labels(program, tbb.block)
                for label in tbb.successors:
                    if allowed is None:
                        # Indirect/ret terminator: targets are unknown
                        # statically, but must still be real code.
                        if not program.has_instruction(label):
                            yield self.diag(
                                "%s takes an indirect edge to %#x, "
                                "which is not program code"
                                % (tbb.name, label),
                                location=tbb.name,
                                trace=trace.trace_id,
                                label=label,
                            )
                        continue
                    if label not in allowed:
                        yield self.diag(
                            "%s has an edge labelled %#x that its "
                            "terminator cannot reach (feasible: %s)"
                            % (tbb.name, label,
                               ", ".join("%#x" % a for a in
                                         sorted(allowed)) or "none"),
                            location=tbb.name,
                            trace=trace.trace_id,
                            label=label,
                        )
                    elif (tbb.block.start in cfg.blocks
                            and label in cfg.blocks
                            and cfg.blocks[tbb.block.start].end
                            == tbb.block.end
                            and not cfg.has_edge(tbb.block.start, label)):
                        # The dynamic block coincides with a static CFG
                        # block, yet the graph lacks the edge — the
                        # trace and the decoded CFG disagree.
                        yield self.diag(
                            "edge %s -> %#x is missing from the static "
                            "CFG" % (tbb.name, label),
                            location=tbb.name,
                            trace=trace.trace_id,
                            label=label,
                        )


class CfgSideExitTarget(Rule):
    rule_id = "TEA011"
    name = "cfg-side-exit-target"
    family = "cfg"
    description = (
        "A side-exit label points outside the program image; the exit "
        "stub would transfer to a non-code address."
    )
    paper = "Section 3 (side exits become NTE/trace-entry transitions)"
    requires = ("trace_set", "program")

    def check(self, subject):
        program = subject.program
        for trace in subject.trace_set:
            for tbb in trace:
                for label in tbb.exit_labels():
                    if label is None:   # statically unknown (ret/indirect)
                        continue
                    if not program.has_instruction(label):
                        yield self.diag(
                            "%s has a side exit to %#x, which is not an "
                            "instruction in the program"
                            % (tbb.name, label),
                            location=tbb.name,
                            trace=trace.trace_id,
                            label=label,
                        )


register(CfgInfeasibleEdge())
register(CfgSideExitTarget())
