"""Operand model for SX86 instructions.

Four operand kinds exist:

- :class:`Reg` — a general-purpose register.
- :class:`Imm` — a 32-bit immediate (stored as a signed Python int; the
  interpreter wraps values to 32 bits).
- :class:`Mem` — a memory reference ``[base + index*scale + disp]`` where
  every component is optional, mirroring IA-32 addressing modes.
- :class:`LabelRef` — a symbolic reference produced by the assembler's
  first pass; pass two resolves every ``LabelRef`` into an :class:`Imm`,
  so no ``LabelRef`` survives in an assembled :class:`~repro.isa.program.Program`.
- :class:`LabelMem` — a memory operand naming a label, which the
  assembler turns into a :class:`Mem` of each instruction's own.

Operands are immutable value objects: they compare by content and are
hashable, which lets instruction and block interning use them as keys.
"""

from repro.isa.registers import REGISTER_NAMES


class Reg:
    """A register operand, identified by its index into the register file."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    @property
    def name(self):
        return REGISTER_NAMES[self.index]

    def __repr__(self):
        return "Reg(%s)" % self.name

    def __str__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Reg) and other.index == self.index

    def __hash__(self):
        return hash((Reg, self.index))


class Imm:
    """An immediate operand."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Imm(%#x)" % (self.value & 0xFFFFFFFF,)

    def __str__(self):
        return str(self.value)

    def __eq__(self, other):
        return isinstance(other, Imm) and other.value == self.value

    def __hash__(self):
        return hash((Imm, self.value))


class Mem:
    """A memory operand: effective address = base + index*scale + disp.

    ``base`` and ``index`` are register indices or ``None``; ``scale`` is
    1, 2, 4 or 8; ``disp`` is a signed displacement.
    """

    __slots__ = ("base", "index", "scale", "disp")

    def __init__(self, base=None, index=None, scale=1, disp=0):
        self.base = base
        self.index = index
        self.scale = scale
        self.disp = disp

    def __repr__(self):
        return "Mem(%s)" % str(self)

    def __str__(self):
        parts = []
        if self.base is not None:
            parts.append(REGISTER_NAMES[self.base])
        if self.index is not None:
            parts.append("%s*%d" % (REGISTER_NAMES[self.index], self.scale))
        if self.disp or not parts:
            parts.append("%#x" % (self.disp & 0xFFFFFFFF,) if self.disp >= 0
                         else "-%#x" % (-self.disp,))
        return "[%s]" % "+".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, Mem)
            and other.base == self.base
            and other.index == self.index
            and other.scale == self.scale
            and other.disp == self.disp
        )

    def __hash__(self):
        return hash((Mem, self.base, self.index, self.scale, self.disp))


class LabelRef:
    """A symbolic label reference; only valid before pass two resolution."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "LabelRef(%r)" % self.name

    def __str__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, LabelRef) and other.name == self.name

    def __hash__(self):
        return hash((LabelRef, self.name))


class LabelMem:
    """``[label + base + index*scale + disp]`` before layout: a template,
    compared by identity, that the assembler turns into one :class:`Mem`
    per instruction."""

    __slots__ = ("label", "base", "index", "scale", "disp")

    def __init__(self, label, base=None, index=None, scale=1, disp=0):
        self.label = label
        self.base = base
        self.index = index
        self.scale = scale
        self.disp = disp

    def __str__(self):
        parts = [self.label]
        if self.base is not None:
            parts.append(REGISTER_NAMES[self.base])
        if self.index is not None:
            parts.append("%s*%d" % (REGISTER_NAMES[self.index], self.scale))
        return "[%s%s]" % ("+".join(parts), "%+d" % self.disp if self.disp else "")
