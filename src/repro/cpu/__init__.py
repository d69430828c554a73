"""The SX86 interpreter.

Replaces the hardware + OS the paper ran on.  The executor runs a
:class:`~repro.isa.program.Program` and records the *dynamic block
stream*: one row per StarDBT-flavour block, ending at a control
transfer, carrying the two instruction counts the paper's Section 4.1
contrasts — StarDBT counts a REP-prefixed instruction once, Pin counts
every iteration — plus a side row per Pin-style block splitter.

Every higher layer (the DBT and its trace recorders, MiniPin, the TEA
replayer) consumes that stream rather than re-executing instructions,
so all engines observe the identical dynamic control flow.  One run is
recorded once as an :class:`~repro.cpu.stream.ExecutionStream` and
replayed by every engine that needs it; :class:`EdgeEvent` objects are
built only for callers of ``Executor.run(on_event)``.
"""

from repro.cpu.events import (
    EDGE_CALL,
    EDGE_COND,
    EDGE_IND_CALL,
    EDGE_IND_JMP,
    EDGE_JMP,
    EDGE_RET,
    EDGE_SPLIT,
    EdgeEvent,
)
from repro.cpu.executor import ExecutionResult, Executor, run_program
from repro.cpu.machine import Machine
from repro.cpu.stream import ExecutionStream

__all__ = [
    "EdgeEvent",
    "EDGE_COND",
    "EDGE_JMP",
    "EDGE_CALL",
    "EDGE_RET",
    "EDGE_IND_JMP",
    "EDGE_IND_CALL",
    "EDGE_SPLIT",
    "ExecutionResult",
    "ExecutionStream",
    "Executor",
    "Machine",
    "run_program",
]
