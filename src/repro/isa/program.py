"""Assembled SX86 program image.

A :class:`Program` is the unit every other subsystem consumes: the CPU
fetches instructions from it, the CFG builder walks it statically, the
workload generator emits one per benchmark, and trace records refer to its
addresses.

Code is laid out contiguously from ``base`` (default 0x08048000, the
classic Linux IA-32 text base).  An optional data section follows the
code, 16-byte aligned; its initial word values are applied to the machine
memory before execution.
"""

import hashlib
from operator import attrgetter

from repro.errors import ExecutionError

#: Default text-segment base, matching Linux IA-32 executables.
DEFAULT_BASE = 0x08048000

#: Default stack pointer on entry (grows down).
DEFAULT_STACK_TOP = 0x0BFFF000

_addr = attrgetter("addr")
_length = attrgetter("length")


class Program:
    """An immutable, laid-out SX86 program.

    Attributes
    ----------
    base:
        Address of the first instruction.
    instructions:
        Instructions in layout order, each with ``addr``/``length`` set.
    labels:
        Mapping from label name to address (code and data labels).
    entry:
        Address execution starts at (the ``main`` label when present,
        otherwise ``base``).
    data:
        Mapping from address to initial 32-bit word value.
    """

    def __init__(self, instructions, labels, entry, base=DEFAULT_BASE, data=None,
                 source=None):
        self.base = base
        self.instructions = list(instructions)
        self.labels = dict(labels)
        self.entry = entry
        self.data = dict(data or {})
        self.source = source
        self._by_addr = dict(zip(map(_addr, self.instructions),
                                 self.instructions))
        self._digest = None
        if self.instructions:
            last = self.instructions[-1]
            self.code_end = last.addr + last.length
        else:
            self.code_end = base

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def instruction_at(self, addr):
        """Return the instruction at ``addr``.

        Raises :class:`~repro.errors.ExecutionError` when ``addr`` does not
        fall on an instruction boundary — the same condition a real DBT
        would treat as a control-flow error.
        """
        try:
            return self._by_addr[addr]
        except KeyError:
            raise ExecutionError("no instruction at %#x" % (addr,)) from None

    def content_digest(self):
        """SHA-256 hex digest of everything execution depends on.

        Covers the layout base, entry, every instruction (address,
        length and resolved assembly) and the data image, but not label
        names: two programs with the same digest execute identically.
        Keys recorded execution streams (:mod:`repro.cpu.stream`).
        """
        if self._digest is None:
            # Each instruction is rendered once per distinct opcode and
            # operand tuple identity; repeats of a source line share one
            # tuple, and rendering a text again costs less than hashing
            # its operands by value.  The lines are then formatted in
            # one bulk pass.
            texts = {}  # (opcode, id(operands)) -> rendered assembly
            rendered = []
            for instr in self.instructions:
                text = texts.get((instr.opcode, id(instr.operands)))
                if text is None:
                    text = texts[instr.opcode, id(instr.operands)] = (
                        instr.to_assembly())
                rendered.append(text)
            lines = ["SX86-PROGRAM 1 %x %x" % (self.base, self.entry)]
            lines.extend(map("%x %d %s".__mod__, zip(
                map(_addr, self.instructions),
                map(_length, self.instructions), rendered)))
            lines.extend(map("%x=%d".__mod__, sorted(self.data.items())))
            text = "\n".join(lines).encode("utf-8")
            self._digest = hashlib.sha256(text).hexdigest()
        return self._digest

    def has_instruction(self, addr):
        return addr in self._by_addr

    def label_addr(self, name):
        try:
            return self.labels[name]
        except KeyError:
            raise ExecutionError("unknown label %r" % (name,)) from None

    @property
    def code_size_bytes(self):
        return self.code_end - self.base

    def static_successors(self, instr):
        """Statically known successor addresses of ``instr``.

        Conditional branches yield (target, fallthrough); direct jumps the
        target; calls the target plus the return continuation; returns and
        indirect transfers yield nothing (unknown statically).  Used by the
        static CFG builder and by Algorithm 1 when computing TBB successors.
        """
        if not instr.is_control:
            return (instr.fallthrough,)
        if instr.opcode == "hlt" or instr.is_ret or instr.is_indirect:
            return ()
        if instr.is_conditional:
            return (instr.target, instr.fallthrough)
        if instr.is_call:
            return (instr.target, instr.fallthrough)
        return (instr.target,)

    def disassemble(self):
        """Render the whole program as address-annotated assembly text."""
        addr_to_labels = {}
        for name, addr in sorted(self.labels.items()):
            addr_to_labels.setdefault(addr, []).append(name)
        lines = []
        for instr in self.instructions:
            for name in addr_to_labels.get(instr.addr, ()):
                lines.append("%s:" % name)
            lines.append("    %#010x  %s" % (instr.addr, instr.to_assembly()))
        return "\n".join(lines)

    def __repr__(self):
        return "<Program %d instructions, %d bytes at %#x>" % (
            len(self.instructions),
            self.code_size_bytes,
            self.base,
        )
