"""The pintool API.

A pintool registers interest in block transitions; MiniPin calls
``on_transition`` for every completed dynamic basic block (StarDBT
flavour — taken/fall-through edges, per the Section 4.1 workaround) and
``on_finish`` once at program end.  ``attach`` hands the tool the engine
so it can reach the shared cost model, the block index and the program
image — analysis work the tool performs must be charged to that cost
model, the way real analysis routines cost real cycles.
"""


class Pintool:
    """Base class for instrumentation tools; override the hooks.

    A tool that consumes packed ``(next_start, instrs_dbt, instrs_pin)``
    int batches (see :mod:`repro.pin.packed`) sets :attr:`packed_batch`
    to its batch size in transitions by the end of :meth:`attach`; the
    engine then calls :meth:`on_packed` with the stream's
    :class:`~repro.core.compiled.PackedBatch` batches instead of
    :meth:`on_transition` per block.
    Such a tool charges only its own cost categories, never Pin's
    (``pin_*`` and ``instructions``): the engine writes those from its
    charge tape as running values (:class:`repro.pin.pin.ChargeTape`).
    """

    #: Transitions per :meth:`on_packed` batch; ``None`` = per-call
    #: :meth:`on_transition` delivery.
    packed_batch = None

    def __init__(self):
        self.pin = None

    def attach(self, pin):
        """Called by the engine before the run starts."""
        self.pin = pin

    @property
    def cost(self):
        return self.pin.cost

    def on_transition(self, transition):
        """One dynamic basic block completed (StarDBT-flavour blocks)."""

    def on_packed(self, batch):
        """A batch of ``packed_batch`` packed transitions completed (the
        last batch of a run may be shorter).

        ``batch`` is a :class:`~repro.core.compiled.PackedBatch` the
        stream built once and hands to every run with this batch size:
        ``batch.triples`` is a zero-copy int64 slice of the stream's
        ``transitions`` lane, ``batch.pcs`` its ``next_start`` values
        and ``batch.instrs_dbt`` / ``batch.instrs_pin`` its totals.
        Treat it as read-only."""
        raise NotImplementedError

    def on_finish(self):
        """Program ended; finalize analysis state."""


class CallbackTool(Pintool):
    """Adapter: wrap plain callables as a pintool (handy in tests)."""

    def __init__(self, on_transition=None, on_finish=None):
        super().__init__()
        self._transition_fn = on_transition
        self._finish_fn = on_finish

    def on_transition(self, transition):
        if self._transition_fn is not None:
            self._transition_fn(transition)

    def on_finish(self):
        if self._finish_fn is not None:
            self._finish_fn()


class MultiTool(Pintool):
    """Run several pintools over one execution.

    Real Pin runs one tool per process; analyses that want to share a run
    compose inside the tool.  ``MultiTool`` is that composition: each
    sub-tool is attached to the same engine (one shared cost model — each
    tool still charges its own analysis work) and receives every
    transition in registration order.

    Example: replay a TEA *and* collect the DCFG in a single pass::

        tool = MultiTool([TeaReplayTool(trace_set=traces), DcfgTool()])
        Pin(program, tool=tool).run()
    """

    def __init__(self, tools):
        super().__init__()
        if not tools:
            raise ValueError("MultiTool needs at least one tool")
        self.tools = list(tools)

    def attach(self, pin):
        super().attach(pin)
        for tool in self.tools:
            tool.attach(pin)

    def on_transition(self, transition):
        for tool in self.tools:
            tool.on_transition(transition)

    def on_finish(self):
        for tool in self.tools:
            tool.on_finish()

    def __getitem__(self, index):
        return self.tools[index]

    def __len__(self):
        return len(self.tools)
