"""Static control-flow graph decoded from a program image.

Leaders are the program entry, every label, every direct branch target and
every fall-through of a control transfer.  Indirect transfer targets are
unknown statically; labels act as the symbol information a real DBT would
use for jump tables.  The CFG backs loop detection (:mod:`repro.cfg.loops`)
and diagnostic rendering; dynamic behaviour always comes from the edge
stream instead.
"""

from repro.cfg.basic_block import BasicBlock


class ControlFlowGraph:
    """Static CFG: interned blocks plus their successor edges.

    ``blocks`` maps start address to
    :class:`~repro.cfg.basic_block.BasicBlock`; ``succ`` maps every block
    start to an insertion-ordered ``{successor_start: None}`` dict, so
    successors and edges come out in decode order.
    """

    def __init__(self, program, blocks, succ):
        self.program = program
        self.blocks = blocks
        self.succ = succ

    @property
    def entry(self):
        return self.program.entry

    def successors(self, start):
        return list(self.succ[start])

    def predecessors(self, start):
        return [src for src, dsts in self.succ.items() if start in dsts]

    def edges(self):
        """Every ``(src, dst)`` edge, in decode order."""
        return [(src, dst) for src, dsts in self.succ.items() for dst in dsts]

    def has_edge(self, src, dst):
        return dst in self.succ.get(src, ())

    def __len__(self):
        return len(self.blocks)

    def to_dot(self, highlight=()):
        """Render as Graphviz DOT (used by the Figure 2 regenerator)."""
        highlighted = set(highlight)
        lines = ["digraph cfg {", "  node [shape=box, fontname=monospace];"]
        names = self._block_names()
        for start, block in sorted(self.blocks.items()):
            style = ", style=filled, fillcolor=lightgray" if start in highlighted else ""
            lines.append(
                '  b%x [label="%s\\n%#x..%#x"%s];'
                % (start, names.get(start, "%#x" % start), block.start, block.end, style)
            )
        for src, dst in sorted(self.edges()):
            lines.append("  b%x -> b%x;" % (src, dst))
        lines.append("}")
        return "\n".join(lines)

    def _block_names(self):
        names = {}
        for label, addr in self.program.labels.items():
            if addr in self.blocks and addr not in names:
                names[addr] = label
        return names


def build_cfg(program):
    """Decode the static CFG of ``program``."""
    leaders = {program.entry}
    for addr in program.labels.values():
        if program.has_instruction(addr):
            leaders.add(addr)
    for instr in program:
        if instr.is_control:
            if instr.target is not None:
                leaders.add(instr.target)
            if instr.opcode != "hlt" and not (
                instr.kind == "jmp" and not instr.is_indirect
            ):
                # Everything except an unconditional direct jump / hlt can
                # fall through (conditionals, calls returning, indirects
                # are conservatively assumed to continue).
                if program.has_instruction(instr.fallthrough):
                    leaders.add(instr.fallthrough)

    blocks = {}
    succ = {}
    ordered = sorted(leaders)
    leader_set = set(ordered)
    for start in ordered:
        addr = start
        n_instrs = 0
        size_bytes = 0
        terminator = None
        while True:
            instr = program.instruction_at(addr)
            n_instrs += 1
            size_bytes += instr.length
            terminator = instr
            following = instr.fallthrough
            if instr.is_control or following in leader_set or not (
                program.has_instruction(following)
            ):
                break
            addr = following
        block = BasicBlock(start, addr, n_instrs, size_bytes, terminator)
        blocks[start] = block
        succ[start] = {}

    for start, block in blocks.items():
        for successor in program.static_successors(block.terminator):
            if successor in blocks:
                succ[start][successor] = None
    return ControlFlowGraph(program, blocks, succ)
