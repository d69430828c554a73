"""Dynamic basic-block discovery from the edge stream.

The builder consumes :class:`~repro.cpu.events.EdgeEvent` objects in
execution order and produces *block transitions*: ``(block, event,
next_start)`` triples.  Two flavours reproduce the Section 4.1 mismatch:

- ``FLAVOR_STARDBT``: blocks end only at genuine control transfers; REP
  and ``cpuid`` split events are merged into the enclosing block.
- ``FLAVOR_PIN``: split events also end blocks, exactly as Pin creates
  new dynamic basic blocks at ``cpuid`` and REP-prefixed instructions.

Because the paper's pintool "inserts the instrumentation code on the taken
and fall through edges instead of at the beginning of the TBBs", the TEA
tools always use the StarDBT flavour even when hosted under MiniPin — the
whole point of that implementation trick was to observe the same
transitions StarDBT saw.
"""

FLAVOR_STARDBT = "stardbt"
FLAVOR_PIN = "pin"


class BlockTransition:
    """One dynamic block completion plus the edge that ended it."""

    __slots__ = ("block", "event", "next_start", "instrs_dbt", "instrs_pin")

    def __init__(self, block, event, next_start, instrs_dbt, instrs_pin):
        self.block = block
        self.event = event
        self.next_start = next_start
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin

    def __repr__(self):
        if self.next_start is None:
            return "<Transition %r -> end of run>" % (self.block,)
        return "<Transition %r -> %#x>" % (self.block, self.next_start)


class DynamicBlockBuilder:
    """Chops the edge stream into dynamic basic blocks.

    Parameters
    ----------
    block_index:
        Shared :class:`~repro.cfg.basic_block.BlockIndex` for interning.
    entry:
        Address of the first block's start (the program entry).
    flavor:
        ``FLAVOR_STARDBT`` or ``FLAVOR_PIN`` (see module docstring).
    on_transition:
        Callback invoked with each :class:`BlockTransition`.
    """

    def __init__(self, block_index, entry, flavor=FLAVOR_STARDBT,
                 on_transition=None):
        if flavor not in (FLAVOR_STARDBT, FLAVOR_PIN):
            raise ValueError("unknown flavor %r" % flavor)
        self.block_index = block_index
        self.flavor = flavor
        self.on_transition = on_transition
        self.current_start = entry
        self._pending_dbt = 0
        self._pending_pin = 0
        self.blocks_completed = 0

    def feed(self, event):
        """Consume one edge event; may emit a block transition."""
        merge_split = event.kind == "split" and self.flavor == FLAVOR_STARDBT
        if merge_split:
            # StarDBT does not end blocks at cpuid/REP: remember the counts
            # and keep extending the current block.
            self._pending_dbt += event.instrs_dbt
            self._pending_pin += event.instrs_pin
            return None
        instrs_dbt = self._pending_dbt + event.instrs_dbt
        instrs_pin = self._pending_pin + event.instrs_pin
        self._pending_dbt = 0
        self._pending_pin = 0
        block = self.block_index.block(self.current_start, event.pc)
        transition = BlockTransition(
            block, event, event.target, instrs_dbt, instrs_pin
        )
        self.current_start = event.target
        self.blocks_completed += 1
        if self.on_transition is not None:
            self.on_transition(transition)
        return transition

    def flush(self, final_pc, residual_dbt, residual_pin):
        """Close the trailing block at program halt.

        ``final_pc`` is the ``hlt`` address; ``residual_*`` are the
        instruction counts the executor accumulated after the last event
        (callers compute them as run totals minus per-event sums).
        """
        block = self.block_index.block(self.current_start, final_pc)
        transition = BlockTransition(
            block,
            None,
            None,
            self._pending_dbt + residual_dbt,
            self._pending_pin + residual_pin,
        )
        self._pending_dbt = 0
        self._pending_pin = 0
        self.blocks_completed += 1
        if self.on_transition is not None:
            self.on_transition(transition)
        return transition
