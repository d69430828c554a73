"""Packing block transitions into the compiled engine's int layout.

The compiled engine (:class:`~repro.core.compiled.CompiledReplayer`)
walks flat integers, not :class:`~repro.cfg.builder.BlockTransition`
objects: ``array('q')`` batches of ``(next_start, instrs_dbt,
instrs_pin)`` triples, with a terminal transition's ``next_start=None``
encoded as :data:`~repro.core.compiled.END_OF_RUN` (-1; real PCs are
non-negative).  A transition carrying a *genuinely negative* PC is
rejected with :class:`~repro.errors.PackedStreamError` at pack time —
letting it through would silently alias corrupt input onto the terminal
sentinel and end the replayed run early.

Under :class:`~repro.pin.pin.Pin` a tool needs no packing: a recorded
stream already holds its transitions in this layout and builds its
:class:`~repro.core.compiled.PackedBatch` batches once
(:class:`~repro.pin.pin.ChargeTape`).  :func:`pack_transitions` is for
tests and benchmarks that pre-capture transitions; wrap its array in a
``PackedBatch`` to replay it.
"""

from array import array

from repro.core.compiled import END_OF_RUN
from repro.errors import PackedStreamError

#: Triples per batch handed to ``CompiledReplayer.run()`` when no
#: explicit batch size is configured.
DEFAULT_PACKED_BATCH = 4096


def pack_transitions(transitions):
    """Pack an iterable of block transitions into one flat ``array('q')``.

    The result holds ``3 * len(transitions)`` ints — wrap it in a
    :class:`~repro.core.compiled.PackedBatch` for
    :meth:`CompiledReplayer.run`.  Raises
    :class:`~repro.errors.PackedStreamError` on a transition whose
    ``next_start`` is negative (reserved for the terminal sentinel).
    """
    packed = array("q")
    append = packed.append
    for index, transition in enumerate(transitions):
        next_start = transition.next_start
        if next_start is None:
            next_start = END_OF_RUN
        elif next_start < 0:
            raise PackedStreamError(
                "transition %d has negative next_start %d: negative "
                "values are reserved for the END_OF_RUN sentinel (use "
                "next_start=None for a terminal transition)"
                % (index, next_start),
                index=index, value=next_start,
            )
        append(next_start)
        append(transition.instrs_dbt)
        append(transition.instrs_pin)
    return packed
