"""Packed transition streams for the compiled replay engine.

The Pin engine delivers one :class:`~repro.cfg.builder.BlockTransition`
object per executed block.  The compiled engine
(:class:`~repro.core.compiled.CompiledReplayer`) does not want objects —
it wants flat integers.  This module is the bridge: it packs transition
objects into ``array('q')`` batches of ``(next_start, instrs_dbt,
instrs_pin)`` triples, with a terminal transition's ``next_start=None``
encoded as :data:`~repro.core.compiled.END_OF_RUN` (-1; real PCs are
non-negative).  A transition carrying a *genuinely negative* PC is
rejected with :class:`~repro.errors.PackedStreamError` at pack time —
letting it through would silently alias corrupt input onto the terminal
sentinel and end the replayed run early.

Two entry points:

- :func:`pack_transitions` — one-shot packing of a whole stream, for
  benchmarks and tests that pre-capture transitions;
- :class:`PackedTransitionEncoder` — incremental packing with batch
  hand-off, what :class:`~repro.pin.tea_tool.TeaReplayTool` uses when
  it is delivered transitions one at a time (inside a
  :class:`~repro.pin.pintool.MultiTool`): ``add()`` returns a full
  batch when one is ready, ``flush()`` drains the remainder at end of
  run.

The engine walks a :class:`~repro.core.compiled.PackedBatch`; both
entry points' arrays are wrapped by its constructor.  Under
:class:`~repro.pin.pin.Pin` alone a tool needs neither: a recorded
stream already holds its transitions in this layout and builds its
batches once (:class:`~repro.pin.pin.ChargeTape`).
"""

from array import array

from repro.core.compiled import END_OF_RUN
from repro.errors import PackedStreamError

#: Triples per batch handed to ``CompiledReplayer.run()`` when no
#: explicit batch size is configured.
DEFAULT_PACKED_BATCH = 4096


def _encode_next_start(next_start, index):
    """``None`` -> END_OF_RUN; negative real PCs are rejected."""
    if next_start is None:
        return END_OF_RUN
    if next_start < 0:
        raise PackedStreamError(
            "transition %d has negative next_start %d: negative values "
            "are reserved for the END_OF_RUN sentinel (use "
            "next_start=None for a terminal transition)"
            % (index, next_start),
            index=index, value=next_start,
        )
    return next_start


def pack_transitions(transitions):
    """Pack an iterable of block transitions into one flat ``array('q')``.

    The result holds ``3 * len(transitions)`` ints — consume it with
    :meth:`CompiledReplayer.run`.  Raises
    :class:`~repro.errors.PackedStreamError` on a transition whose
    ``next_start`` is negative (reserved for the terminal sentinel).
    """
    packed = array("q")
    append = packed.append
    for index, transition in enumerate(transitions):
        append(_encode_next_start(transition.next_start, index))
        append(transition.instrs_dbt)
        append(transition.instrs_pin)
    return packed


class PackedTransitionEncoder:
    """Incremental transition packer with fixed-size batch hand-off.

    ``batch_size`` counts *transitions* (triples), not ints.  Each full
    batch is returned exactly once from :meth:`add` and a fresh buffer
    is started, so the consumer may keep or discard the array freely.
    """

    __slots__ = ("batch_size", "_buffer")

    def __init__(self, batch_size=DEFAULT_PACKED_BATCH):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._buffer = array("q")

    def __len__(self):
        """Transitions currently buffered (not yet handed off)."""
        return len(self._buffer) // 3

    def add(self, transition):
        """Buffer one transition; returns a full batch or ``None``.

        Raises :class:`~repro.errors.PackedStreamError` on a negative
        ``next_start`` (the transition is *not* buffered; the index in
        the error counts transitions within the current batch).
        """
        buffer = self._buffer
        encoded = _encode_next_start(transition.next_start,
                                     len(buffer) // 3)
        buffer.append(encoded)
        buffer.append(transition.instrs_dbt)
        buffer.append(transition.instrs_pin)
        if len(buffer) >= 3 * self.batch_size:
            self._buffer = array("q")
            return buffer
        return None

    def flush(self):
        """Hand off whatever is buffered; returns ``None`` when empty."""
        buffer = self._buffer
        if not buffer:
            return None
        self._buffer = array("q")
        return buffer
