"""The pintool API.

A pintool receives the run's completed dynamic basic blocks (StarDBT
flavour — taken/fall-through edges, per the Section 4.1 workaround) in
packed batches through ``on_packed``, and ``on_finish`` once at program
end.  ``attach`` hands the tool the engine so it can reach the shared
cost model, the block index and the program image — analysis work the
tool performs must be charged to that cost model, the way real analysis
routines cost real cycles.
"""

from repro.pin.packed import DEFAULT_PACKED_BATCH


class Pintool:
    """Base class for instrumentation tools; override the hooks.

    The engine calls :meth:`on_packed` with the stream's
    :class:`~repro.core.compiled.PackedBatch` batches of
    :attr:`packed_batch` rows each.  A tool charges only its own cost
    categories, never Pin's (``pin_*`` and ``instructions``): the
    engine writes those from its charge tape as running values
    (:class:`repro.pin.pin.ChargeTape`), each batch's before the tool
    receives it.
    """

    #: Rows per :meth:`on_packed` batch; set it by the end of
    #: :meth:`attach`.
    packed_batch = DEFAULT_PACKED_BATCH

    def __init__(self):
        self.pin = None

    def attach(self, pin):
        """Called by the engine before the run starts."""
        self.pin = pin

    @property
    def cost(self):
        return self.pin.cost

    def on_packed(self, batch):
        """A batch of ``packed_batch`` rows completed (the last batch of
        a run may be shorter).

        ``batch`` is a :class:`~repro.core.compiled.PackedBatch` the
        stream built once and hands to every run with this batch size:
        ``batch.triples`` is a zero-copy int64 slice of the stream's
        ``transitions`` lane, ``batch.pcs`` its ``next_start`` values
        (:data:`~repro.cpu.events.END_OF_RUN` on the terminal row),
        ``batch.instrs_dbt`` / ``batch.instrs_pin`` its totals and
        ``batch.flags`` the rows' flag bytes.  A row's block starts at
        the previous row's ``next_start`` (``batch.start`` for the first
        row); ``pin.block_index.block_from(start)`` gives it.  Treat the
        batch as read-only."""

    def on_finish(self):
        """Program ended; finalize analysis state."""
