"""The SX86 instruction set.

The set is deliberately shaped like user-mode IA-32: ALU ops, loads and
stores through ``mov``, stack ops, direct and indirect branches, calls,
conditional jumps over the usual condition codes, REP-prefixed string
moves, and ``cpuid`` (which matters only because Pin splits dynamic basic
blocks at it — the Section 4.1 implementation challenge).

Each instruction knows its byte length (from :mod:`repro.isa.encoding`),
its address once laid out, and its control-flow role.  The interpreter in
:mod:`repro.cpu.executor` dispatches on ``opcode``.
"""

from repro.errors import AssemblerError
from repro.isa.operands import Imm, Mem, Reg

#: Condition codes accepted after ``j`` (e.g. ``jnz``), matching IA-32.
CONDITION_CODES = ("z", "nz", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns")


class OpcodeSpec:
    """Static metadata for one opcode.

    ``kind`` groups opcodes for the interpreter and the block builders:

    - ``"alu"``: two-operand ALU ops writing the destination and flags.
    - ``"unary"``: one-operand ALU ops (``inc``/``dec``/``neg``/``not``).
    - ``"mov"``/``"lea"``: data movement (no flags).
    - ``"cmp"``/``"test"``: flag-setting comparisons.
    - ``"push"``/``"pop"``: stack traffic through ``esp``.
    - ``"jmp"``/``"jcc"``/``"call"``/``"ret"``: control transfers.
    - ``"rep"``: REP-prefixed string operation (iterates on ``ecx``).
    - ``"misc"``: ``nop``, ``hlt``, ``cpuid``.
    """

    __slots__ = ("name", "kind", "arity", "splits_block")

    def __init__(self, name, kind, arity, splits_block=False):
        self.name = name
        self.kind = kind
        self.arity = arity
        self.splits_block = splits_block

    def __repr__(self):
        return "OpcodeSpec(%s/%s)" % (self.name, self.kind)


def _specs():
    table = {}

    def add(name, kind, arity, **kwargs):
        table[name] = OpcodeSpec(name, kind, arity, **kwargs)

    for name in ("add", "sub", "and", "or", "xor", "imul", "shl", "shr", "sar"):
        add(name, "alu", 2)
    for name in ("inc", "dec", "neg", "not"):
        add(name, "unary", 1)
    add("mov", "mov", 2)
    add("lea", "lea", 2)
    add("cmp", "cmp", 2)
    add("test", "test", 2)
    add("push", "push", 1)
    add("pop", "pop", 1)
    add("jmp", "jmp", 1)
    for cc in CONDITION_CODES:
        add("j" + cc, "jcc", 1)
    add("call", "call", 1)
    add("ret", "ret", 0)
    # REP string ops iterate ecx times; Pin splits blocks at them and counts
    # each iteration as one instruction, StarDBT counts the whole op as one.
    add("rep_movsd", "rep", 0, splits_block=True)
    add("rep_stosd", "rep", 0, splits_block=True)
    add("cpuid", "misc", 0, splits_block=True)
    add("nop", "misc", 0)
    add("hlt", "misc", 0)
    return table


#: Opcode name -> :class:`OpcodeSpec` for every SX86 opcode.
OPCODES = _specs()

_CONTROL_KINDS = frozenset(("jmp", "jcc", "call", "ret"))

#: Opcodes that end a basic block (:attr:`Instruction.is_control`).
CONTROL_OPCODES = frozenset(
    [name for name, spec in OPCODES.items() if spec.kind in _CONTROL_KINDS]
    + ["hlt"])


def is_direct_branch(opcode, operands):
    """True for a control transfer whose target is its operand: every
    ``jcc``, and ``jmp``/``call`` through an immediate or a label.  The
    assembler resolves such a branch's ``target`` from that operand."""
    kind = OPCODES[opcode].kind
    if kind == "jcc":
        return True
    return ((kind == "jmp" or kind == "call")
            and not isinstance(operands[0], (Reg, Mem)))


class Instruction:
    """One decoded SX86 instruction.

    Instances are created by the assembler; ``addr`` and ``length`` are
    filled in during layout and ``target`` holds the resolved address for
    direct control transfers (``None`` for indirect ones and non-branches).
    """

    __slots__ = ("opcode", "operands", "addr", "length", "target")

    def __init__(self, opcode, operands=(), addr=None, length=None, target=None):
        if opcode not in OPCODES:
            raise AssemblerError("unknown opcode %r" % (opcode,))
        spec = OPCODES[opcode]
        if len(operands) != spec.arity:
            raise AssemblerError(
                "%s takes %d operand(s), got %d"
                % (opcode, spec.arity, len(operands))
            )
        self.opcode = opcode
        self.operands = tuple(operands)
        self.addr = addr
        self.length = length
        self.target = target

    @property
    def spec(self):
        return OPCODES[self.opcode]

    @property
    def kind(self):
        return OPCODES[self.opcode].kind

    @property
    def is_control(self):
        """True for instructions that terminate a basic block."""
        return self.opcode in CONTROL_OPCODES

    @property
    def is_conditional(self):
        return OPCODES[self.opcode].kind == "jcc"

    @property
    def is_call(self):
        return OPCODES[self.opcode].kind == "call"

    @property
    def is_ret(self):
        return OPCODES[self.opcode].kind == "ret"

    @property
    def is_rep(self):
        return OPCODES[self.opcode].kind == "rep"

    @property
    def splits_block(self):
        """True when Pin (but not StarDBT) ends a dynamic block here."""
        return OPCODES[self.opcode].splits_block

    @property
    def is_indirect(self):
        """True for ``jmp``/``call`` through a register or memory operand."""
        if OPCODES[self.opcode].kind not in ("jmp", "call"):
            return False
        operand = self.operands[0]
        return isinstance(operand, (Reg, Mem))

    @property
    def condition(self):
        """The condition-code suffix for ``jcc`` instructions, else None."""
        if OPCODES[self.opcode].kind != "jcc":
            return None
        return self.opcode[1:]

    @property
    def fallthrough(self):
        """Address of the next sequential instruction."""
        return self.addr + self.length

    def __repr__(self):
        ops = ", ".join(str(op) for op in self.operands)
        where = "" if self.addr is None else "%#x: " % self.addr
        return "<%s%s %s>" % (where, self.opcode, ops) if ops else (
            "<%s%s>" % (where, self.opcode)
        )

    def to_assembly(self):
        """Render back to assembler syntax (labels already resolved)."""
        name = self.opcode.replace("rep_", "rep ")
        if not self.operands:
            return name
        control = self.is_control
        rendered = ["%#x" % (operand.value & 0xFFFFFFFF)
                    if control and isinstance(operand, Imm) else str(operand)
                    for operand in self.operands]
        return "%s %s" % (name, ", ".join(rendered))
