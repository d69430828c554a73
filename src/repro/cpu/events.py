"""Dynamic control-flow events and the flag byte that encodes them.

The executor records a run as compact lanes (see
:mod:`repro.cpu.stream`): one row per StarDBT-flavour block, whose
ending event is summarised in one *flag byte* (:data:`KINDS` index in
the low bits, plus :data:`FLAG_TAKEN`, :data:`FLAG_INDIRECT`,
:data:`FLAG_FIRST`, :data:`FLAG_SPLITS` and :data:`FLAG_FINAL`).
StarDBT and the trace recorders read those lanes directly.

:class:`EdgeEvent` is the object form of one event, for the callers
that want one per control transfer (taken or not) and per Pin-style
block splitter (``cpuid``, REP-prefixed ops): ``Executor.run(on_event)``
delivers them to test oracles such as ``DynamicBlockBuilder``.  An
event carries:

- ``pc``: address of the instruction that ended the block,
- ``target``: address execution continues at (branch target when taken,
  fall-through otherwise),
- ``taken``: whether a branch actually redirected control,
- ``kind``: one of the ``EDGE_*`` constants below,
- ``instrs_dbt`` / ``instrs_pin``: instructions executed since the previous
  event *inclusive* of this one, under StarDBT counting (REP counts as one
  instruction) and Pin counting (REP counts each iteration) — the Section
  4.1 discrepancy, reproduced faithfully.

``EDGE_SPLIT`` events exist only so a Pin-flavour basic-block builder can
end blocks at splitters; a StarDBT-flavour builder merges them into the
surrounding block.
"""

EDGE_COND = "cond"
EDGE_JMP = "jmp"
EDGE_CALL = "call"
EDGE_RET = "ret"
EDGE_IND_JMP = "ind_jmp"
EDGE_IND_CALL = "ind_call"
EDGE_SPLIT = "split"

#: Edge kinds produced by genuine control transfers (not splitters).
CONTROL_KINDS = frozenset(
    (EDGE_COND, EDGE_JMP, EDGE_CALL, EDGE_RET, EDGE_IND_JMP, EDGE_IND_CALL)
)

#: ``next_start`` of a stream's terminal row (same value as
#: :data:`repro.core.compiled.END_OF_RUN`).
END_OF_RUN = -1

#: Edge kinds of block-ending events, indexed by the low flag bits.
KINDS = (EDGE_COND, EDGE_JMP, EDGE_CALL, EDGE_RET, EDGE_IND_JMP,
         EDGE_IND_CALL)
KIND_MASK = 0x07
FLAG_TAKEN = 0x08
FLAG_INDIRECT = 0x10
FLAG_FIRST = 0x20
FLAG_SPLITS = 0x40
FLAG_FINAL = 0x80

#: Flag byte of each block-ending edge kind (indirect bit included).
KIND_CODES = {
    kind: index | (FLAG_INDIRECT if kind in (EDGE_RET, EDGE_IND_JMP,
                                             EDGE_IND_CALL) else 0)
    for index, kind in enumerate(KINDS)
}


class EdgeEvent:
    """One dynamic control-flow edge.  See module docstring for fields."""

    __slots__ = ("pc", "target", "taken", "kind", "instrs_dbt", "instrs_pin")

    def __init__(self, pc, target, taken, kind, instrs_dbt, instrs_pin):
        self.pc = pc
        self.target = target
        self.taken = taken
        self.kind = kind
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin

    @property
    def is_backward(self):
        """True for a taken transfer to a lower or equal address.

        Backward taken branches are the MRET/TT hot-spot detector's
        trigger (Dynamo's "start-of-trace" heuristic).
        """
        return self.taken and self.target <= self.pc

    @property
    def is_split(self):
        return self.kind == EDGE_SPLIT

    def __repr__(self):
        return "<Edge %s %#x->%#x taken=%s dbt=%d pin=%d>" % (
            self.kind,
            self.pc,
            self.target,
            self.taken,
            self.instrs_dbt,
            self.instrs_pin,
        )
