"""Basic-block value objects and interning.

A :class:`BasicBlock` is Definition 1 of the paper: a single-entry,
single-exit instruction sequence, identified by its (start, end) address
pair.  Blocks are interned per :class:`BlockIndex` so every engine that
observes the same dynamic span shares one object — identity comparisons
then work across recorders, the DBT and the TEA layers.
"""

from repro.errors import TraceError
from repro.isa.instructions import CONTROL_OPCODES


class BasicBlock:
    """A basic block: instructions from ``start`` through the one at ``end``.

    ``end`` is the address of the final (terminator) instruction, matching
    the paper's convention where blocks end *in* a branch.  Metadata is
    static: ``n_instrs`` counts a REP-prefixed op as a single instruction
    (StarDBT counting); Pin-style dynamic counts come from the edge stream.
    """

    __slots__ = ("start", "end", "n_instrs", "size_bytes", "terminator")

    def __init__(self, start, end, n_instrs, size_bytes, terminator):
        self.start = start
        self.end = end
        self.n_instrs = n_instrs
        self.size_bytes = size_bytes
        self.terminator = terminator  # the ending Instruction (may be None)

    @property
    def key(self):
        return (self.start, self.end)

    def __repr__(self):
        return "<BB %#x..%#x %d instrs %dB>" % (
            self.start,
            self.end,
            self.n_instrs,
            self.size_bytes,
        )

    def __eq__(self, other):
        return (
            isinstance(other, BasicBlock)
            and other.start == self.start
            and other.end == self.end
        )

    def __hash__(self):
        return hash((self.start, self.end))


class BlockIndex:
    """Interning cache of :class:`BasicBlock` objects for one program.

    ``block(start, end)`` walks the program from ``start`` to ``end``
    once, computes static metadata, and returns the shared instance on
    every later request.
    """

    def __init__(self, program):
        self.program = program
        self._blocks = {}
        self._from = {}

    def block_from(self, start):
        """The StarDBT-flavour dynamic block that starts at ``start``.

        Execution entering at ``start`` runs straight through plain
        instructions and ``cpuid``/REP splitters to the first control
        transfer or ``hlt``, so that instruction ends the block whatever
        the run: the block of a start is static.  One walk finds the end
        and sums the metadata; the block is interned with
        :meth:`block`'s.
        """
        found = self._from.get(start)
        if found is not None:
            return found
        instruction_at = self.program.instruction_at
        addr = start
        n_instrs = size_bytes = 0
        for _ in range(100_000):
            instr = instruction_at(addr)
            n_instrs += 1
            size_bytes += instr.length
            if instr.opcode in CONTROL_OPCODES:
                key = (start, addr)
                found = self._blocks.get(key)
                if found is None:
                    found = self._blocks[key] = BasicBlock(
                        start, addr, n_instrs, size_bytes, instr)
                self._from[start] = found
                return found
            addr += instr.length
        raise TraceError("runaway block from %#x (no control transfer)"
                         % start)

    def block(self, start, end):
        key = (start, end)
        found = self._blocks.get(key)
        if found is not None:
            return found
        program = self.program
        addr = start
        n_instrs = 0
        size_bytes = 0
        terminator = None
        guard = 0
        while True:
            instr = program.instruction_at(addr)
            n_instrs += 1
            size_bytes += instr.length
            terminator = instr
            if addr == end:
                break
            addr = instr.fallthrough
            guard += 1
            if guard > 100_000:
                raise TraceError(
                    "runaway block %#x..%#x (end not reachable)" % (start, end)
                )
        made = BasicBlock(start, end, n_instrs, size_bytes, terminator)
        self._blocks[key] = made
        return made

    def known_blocks(self):
        """All blocks interned so far (dynamic code discovery footprint)."""
        return list(self._blocks.values())

    def __len__(self):
        return len(self._blocks)
