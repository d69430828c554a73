"""Two-pass assembler for SX86 text.

Syntax (a pragmatic subset of Intel syntax)::

    ; comment            # comment
    .base 0x08048000     ; optional, before any code
    .entry main          ; optional, defaults to the 'main' label
    main:
        mov ecx, 100
        mov eax, [esi+8]
        mov [edi+ebx*4+4], eax
        cmp eax, 0
        jnz main
        jmp [table+eax*4]
        hlt
    .data
    table:  .word case_a, case_b
    buffer: .zero 16     ; sixteen zero words
    answer: .word 42

Pass one parses instructions and records which instruction each label
precedes.  Pass two lays out code from the base address (data follows
code, 16-byte aligned) and resolves every
:class:`~repro.isa.operands.LabelRef` into an address — branch targets
land in ``Instruction.target``, data references become immediates or
memory displacements.

Both passes do their work once per distinct source line.  Pass one
keeps a memo of raw lines: a line seen before as an instruction (no
label, no directive) becomes a new :class:`Instruction`, built through
``Instruction.__new__``, that shares the first one's opcode and operand
tuple and its shape (byte length, and what pass two must patch)
without being split, looked up or validated again.  A line seen for
the first time is split with ``str.split`` (character loops only for
bracketed or signed operand text), and its operand text is parsed once
and shared with every other line spelling it.  A memory operand naming
a label stays private: pass two patches its ``disp`` in place, so each
instruction gets its own ``Mem``, and a repeat of such a line copies
the first parse's registers and scale into a fresh one.  Pass two lays
out every instruction from the shape its line carries, visits again
only those needing a label resolved or a branch target set, and
resolves each distinct label-bearing operand tuple once.  Every memo
lives and dies with its :class:`Assembler`.
"""

import re

from repro.errors import AssemblerError
from repro.isa.encoding import instruction_length
from repro.isa.instructions import OPCODES, Instruction, is_direct_branch
from repro.isa.operands import Imm, LabelRef, Mem, Reg
from repro.isa.program import DEFAULT_BASE, Program
from repro.isa.registers import is_register_name, register_index

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_NUMBER_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_IDENT_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

#: Sentinel displacement used for not-yet-resolved label displacements so
#: pass-one layout reserves a full disp32.
_PENDING_DISP = 0x7FFFFFFF

#: Pass-two patch flags of an instruction shape.
_RESOLVE, _DIRECT = 1, 2

#: The operand types a destination cannot be (the interpreter cannot
#: write them), and what it takes.
_WRITABLE = ((Imm, LabelRef), "a register or a memory operand")

#: Opcode kind -> ``(operand slot, types it cannot be, what it takes)``
#: triples: forms the parser accepts but the layout cannot encode or the
#: interpreter cannot run.
_REFUSED_OPERANDS = {
    "jcc": ((0, (Reg, Mem), "a label or an address"),),
    "unary": ((0,) + _WRITABLE,),
    "push": ((0, (LabelRef,), "a register, a memory operand or a number"),),
    "pop": ((0,) + _WRITABLE,),
    "alu": ((0,) + _WRITABLE,),
    "mov": ((0,) + _WRITABLE,),
    "lea": ((0,) + _WRITABLE, (1, (Reg, Imm, LabelRef), "a memory operand")),
}


def _parse_number(text):
    return int(text, 0)


def _strip_comment(line):
    for marker in (";", "#"):
        position = line.find(marker)
        if position >= 0:
            line = line[:position]
    return line.strip()


class _MemFixup:
    """Deferred resolution of a label appearing in a memory displacement."""

    def __init__(self, mem, label, extra_disp, line):
        self.mem = mem
        self.label = label
        self.extra_disp = extra_disp
        self.line = line

    def resolve(self, labels):
        if self.label not in labels:
            raise AssemblerError("undefined label %r" % self.label, self.line)
        self.mem.disp = labels[self.label] + self.extra_disp


class Assembler:
    """Stateful assembler; most callers use :func:`assemble` instead."""

    def __init__(self):
        self.base = None
        self.entry_label = None
        self.instructions = []
        self.line_numbers = []  # source line of each instruction
        self.shapes = []  # (length, patch) of each instruction
        self.labels = {}
        self.pending_labels = []
        self.mem_fixups = []
        self.data_items = []  # (kind, payload, line) in layout order
        self.in_data = False
        self._operand_memo = {}  # label-free operand text -> operand tuple
        # instruction line -> (opcode, operands, label fixups, shape)
        self._line_memo = {}

    # ------------------------------------------------------------------
    # pass one: parsing
    # ------------------------------------------------------------------

    def feed(self, source):
        line_memo = self._line_memo
        instructions = self.instructions
        line_numbers = self.line_numbers
        shapes = self.shapes
        new = Instruction.__new__
        for line_number, raw in enumerate(source.splitlines(), start=1):
            known = line_memo.get(raw)
            if known is not None and not self.in_data:
                opcode, operands, fixups, shape = known
                if fixups is not None:
                    operands = self._private_operands(operands, fixups,
                                                      line_number)
                instruction = new(Instruction)
                instruction.opcode = opcode
                instruction.operands = operands
                instruction.addr = instruction.length = None
                instruction.target = None
                if self.pending_labels:
                    self._bind_pending_labels()
                instructions.append(instruction)
                line_numbers.append(line_number)
                shapes.append(shape)
                continue
            if ";" in raw or "#" in raw:
                line = _strip_comment(raw)
            else:
                line = raw.strip()
            if line:
                self._feed_line(line, line_number, raw)

    def _feed_line(self, line, line_number, raw=None):
        """Parse one comment-free line; ``raw`` is its source text when
        the whole line is this text, so an instruction can be memoized
        under it."""
        match = _LABEL_RE.match(line) if ":" in line else None
        if match:
            name, rest = match.group(1), match.group(2).strip()
            self._define_label(name, line_number)
            if rest:
                self._feed_line(rest, line_number)
            return
        if line.startswith("."):
            self._directive(line, line_number)
            return
        if self.in_data:
            raise AssemblerError(
                "instruction %r inside .data section" % line, line_number
            )
        self._instruction(line, line_number, raw)

    def _define_label(self, name, line_number):
        if name in self.labels or name in (pending for pending, _ in self.pending_labels):
            raise AssemblerError("duplicate label %r" % name, line_number)
        if self.in_data:
            self.data_items.append(("label", name, line_number))
        else:
            self.pending_labels.append((name, line_number))

    def _bind_pending_labels(self):
        """Point the labels seen since the last instruction at the next
        one (an index; pass two turns it into an address)."""
        for name, _declared_line in self.pending_labels:
            self.labels[name] = len(self.instructions)
        self.pending_labels = []

    def _directive(self, line, line_number):
        parts = line.split(None, 1)
        name = parts[0]
        argument = parts[1].strip() if len(parts) > 1 else ""
        if name == ".base":
            if self.instructions:
                raise AssemblerError(".base must precede code", line_number)
            self.base = _parse_number(argument)
        elif name == ".entry":
            self.entry_label = argument
        elif name == ".data":
            self.in_data = True
        elif name == ".word":
            if not self.in_data:
                raise AssemblerError(".word outside .data section", line_number)
            if not argument:
                raise AssemblerError(".word needs at least one value", line_number)
            values = [value.strip() for value in argument.split(",")]
            if "" in values:
                raise AssemblerError("empty .word value in %r" % argument,
                                     line_number)
            self.data_items.append(("word", values, line_number))
        elif name == ".zero":
            if not self.in_data:
                raise AssemblerError(".zero outside .data section", line_number)
            count = _parse_number(argument)
            if count <= 0:
                raise AssemblerError(".zero needs a positive count", line_number)
            self.data_items.append(("zero", count, line_number))
        else:
            raise AssemblerError("unknown directive %r" % name, line_number)

    def _instruction(self, line, line_number, raw=None):
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        if mnemonic == "rep":
            rest = operand_text.strip().lower()
            mnemonic = "rep_" + rest
            operand_text = ""
        if mnemonic not in OPCODES:
            raise AssemblerError("unknown opcode %r" % mnemonic, line_number)
        operands = self._operand_memo.get(operand_text)
        fixups = None
        if operands is None:
            n_fixups = len(self.mem_fixups)
            operands = self._parse_operands(operand_text, line_number)
            if len(self.mem_fixups) == n_fixups:
                self._operand_memo[operand_text] = operands
            else:
                fixups = tuple(
                    (next(slot for slot, operand in enumerate(operands)
                          if operand is fixup.mem),
                     fixup.label, fixup.extra_disp)
                    for fixup in self.mem_fixups[n_fixups:])
        try:
            instruction = Instruction(mnemonic, operands)
        except AssemblerError as error:
            raise AssemblerError(str(error), line_number) from None
        for slot, refused, takes in _REFUSED_OPERANDS.get(
                OPCODES[mnemonic].kind, ()):
            if isinstance(operands[slot], refused):
                raise AssemblerError(
                    "%s takes %s as operand %d, not %r"
                    % (mnemonic, takes, slot + 1, str(operands[slot])),
                    line_number)
        shape = self._shape(instruction)
        if raw is not None:
            self._line_memo[raw] = (mnemonic, operands, fixups, shape)
        self.shapes.append(shape)
        if self.pending_labels:
            self._bind_pending_labels()
        self.instructions.append(instruction)
        self.line_numbers.append(line_number)

    def _private_operands(self, operands, fixups, line_number):
        """A copy of a label-bearing operand tuple for a repeated line:
        each ``(slot, label, extra_disp)`` in ``fixups`` gets a fresh
        ``Mem`` with the first parse's registers and scale, and its own
        fixup for pass two to patch."""
        operands = list(operands)
        for slot, label, extra_disp in fixups:
            first = operands[slot]
            mem = Mem(base=first.base, index=first.index, scale=first.scale,
                      disp=_PENDING_DISP)
            self.mem_fixups.append(
                _MemFixup(mem, label, extra_disp, line_number))
            operands[slot] = mem
        return tuple(operands)

    def _parse_operands(self, text, line_number):
        text = text.strip()
        if not text:
            return ()
        return tuple([self._parse_operand(piece, line_number)
                      for piece in self._split_operands(text, line_number)])

    @staticmethod
    def _split_operands(text, line_number):
        if "[" in text or "]" in text:
            pieces = []
            depth = 0
            start = 0
            for position, char in enumerate(text):
                if char == "[":
                    depth += 1
                elif char == "]":
                    depth -= 1
                    if depth < 0:
                        raise AssemblerError("unbalanced ']'", line_number)
                elif char == "," and depth == 0:
                    pieces.append(text[start:position].strip())
                    start = position + 1
            if depth != 0:
                raise AssemblerError("unbalanced '['", line_number)
            pieces.append(text[start:].strip())
        else:
            pieces = [piece.strip() for piece in text.split(",")]
        if "" in pieces:
            raise AssemblerError("empty operand in %r" % text, line_number)
        return pieces

    def _parse_operand(self, text, line_number):
        if text.startswith("["):
            if not text.endswith("]"):
                raise AssemblerError("malformed memory operand %r" % text, line_number)
            return self._parse_mem(text[1:-1].strip(), line_number)
        if is_register_name(text):
            return Reg(register_index(text))
        if _NUMBER_RE.match(text):
            return Imm(_parse_number(text))
        if _IDENT_RE.match(text):
            return LabelRef(text)
        raise AssemblerError("cannot parse operand %r" % text, line_number)

    def _parse_mem(self, inner, line_number):
        base = None
        index = None
        scale = 1
        disp = 0
        label = None
        for sign, term in self._terms(inner, line_number):
            if "*" in term:
                reg_text, _, scale_text = term.partition("*")
                reg_text = reg_text.strip()
                scale_text = scale_text.strip()
                if not is_register_name(reg_text):
                    raise AssemblerError(
                        "scaled index must be a register: %r" % term, line_number
                    )
                if sign < 0:
                    raise AssemblerError("cannot subtract an index register", line_number)
                if index is not None:
                    raise AssemblerError("two index registers in %r" % inner, line_number)
                index = register_index(reg_text)
                scale = _parse_number(scale_text)
                if scale not in (1, 2, 4, 8):
                    raise AssemblerError("scale must be 1/2/4/8", line_number)
            elif is_register_name(term):
                if sign < 0:
                    raise AssemblerError("cannot subtract a register", line_number)
                if base is None:
                    base = register_index(term)
                elif index is None:
                    index = register_index(term)
                else:
                    raise AssemblerError("too many registers in %r" % inner, line_number)
            elif _NUMBER_RE.match(term):
                disp += sign * _parse_number(term)
            elif _IDENT_RE.match(term):
                if label is not None:
                    raise AssemblerError("two labels in %r" % inner, line_number)
                if sign < 0:
                    raise AssemblerError("cannot subtract a label", line_number)
                label = term
            else:
                raise AssemblerError("cannot parse %r in memory operand" % term, line_number)
        mem = Mem(base=base, index=index, scale=scale, disp=disp)
        if label is not None:
            mem.disp = _PENDING_DISP
            self.mem_fixups.append(_MemFixup(mem, label, disp, line_number))
        return mem

    @staticmethod
    def _terms(inner, line_number):
        if not inner:
            raise AssemblerError("empty memory operand", line_number)
        if "-" not in inner:
            # Only additions: empty pieces come from a leading, trailing
            # or doubled '+', which the signed loop below skips as well.
            terms = [(1, piece.strip()) for piece in inner.split("+") if piece]
        else:
            terms = []
            sign = 1
            current = []
            for char in inner:
                if char in "+-":
                    if current:
                        terms.append((sign, "".join(current).strip()))
                        current = []
                        sign = 1 if char == "+" else -1
                    elif char == "-":
                        sign = -sign
                else:
                    current.append(char)
            if current:
                terms.append((sign, "".join(current).strip()))
        if not terms:
            raise AssemblerError("empty memory operand", line_number)
        return terms

    # ------------------------------------------------------------------
    # pass two: layout and resolution
    # ------------------------------------------------------------------

    def finish(self, source=None):
        base = self.base if self.base is not None else DEFAULT_BASE

        instructions = self.instructions
        patches = []  # (position, patch) wherever patch is not 0
        addr = base
        for position, (instruction, (length, patch)) in enumerate(
                zip(instructions, self.shapes)):
            instruction.addr = addr
            instruction.length = length
            if patch:
                patches.append((position, patch))
            addr += length
        code_end = addr
        label_addrs = {}
        for name, position in self.labels.items():
            if position < len(instructions):
                label_addrs[name] = instructions[position].addr
            else:
                label_addrs[name] = code_end
        for name, _line in self.pending_labels:
            # Trailing code labels (e.g. an 'end:' after the last hlt) pin
            # to the end-of-code address.
            label_addrs[name] = code_end
        self.pending_labels = []

        data_addr = (code_end + 15) & ~15
        data = {}
        deferred_words = []  # (addr, label, line)
        for kind, payload, line_number in self.data_items:
            if kind == "label":
                if payload in label_addrs:
                    raise AssemblerError("duplicate label %r" % payload, line_number)
                label_addrs[payload] = data_addr
            elif kind == "word":
                for value_text in payload:
                    if _NUMBER_RE.match(value_text):
                        data[data_addr] = _parse_number(value_text) & 0xFFFFFFFF
                    elif _IDENT_RE.match(value_text):
                        deferred_words.append((data_addr, value_text, line_number))
                    else:
                        raise AssemblerError(
                            "bad .word value %r" % value_text, line_number
                        )
                    data_addr += 4
            elif kind == "zero":
                for _ in range(payload):
                    data[data_addr] = 0
                    data_addr += 4

        for word_addr, label, line_number in deferred_words:
            if label not in label_addrs:
                raise AssemblerError("undefined label %r" % label, line_number)
            data[word_addr] = label_addrs[label] & 0xFFFFFFFF

        for fixup in self.mem_fixups:
            fixup.resolve(label_addrs)

        resolved = {}  # id(operands) -> (operands, resolved operands)
        for position, patch in patches:
            instruction = instructions[position]
            if patch & _RESOLVE:
                operands = instruction.operands
                known = resolved.get(id(operands))
                if known is None:
                    known = resolved[id(operands)] = (
                        operands, self._resolve_operands(
                            operands, label_addrs,
                            self.line_numbers[position]))
                instruction.operands = known[1]
            if patch & _DIRECT:
                instruction.target = instruction.operands[0].value & 0xFFFFFFFF

        if self.entry_label is not None:
            if self.entry_label not in label_addrs:
                raise AssemblerError("entry label %r undefined" % self.entry_label)
            entry = label_addrs[self.entry_label]
        elif "main" in label_addrs:
            entry = label_addrs["main"]
        else:
            entry = base
        return Program(
            instructions,
            label_addrs,
            entry,
            base=base,
            data=data,
            source=source,
        )

    @staticmethod
    def _shape(instruction):
        """``(length, patch)`` of one distinct instruction; ``patch`` has
        :data:`_RESOLVE` set when an operand is a label reference and
        :data:`_DIRECT` for a branch whose target is its resolved
        operand."""
        patch = 0
        if any(isinstance(operand, LabelRef)
               for operand in instruction.operands):
            patch |= _RESOLVE
        if is_direct_branch(instruction.opcode, instruction.operands):
            patch |= _DIRECT
        return (instruction_length(instruction.opcode, instruction.operands),
                patch)

    @staticmethod
    def _resolve_operands(operands, label_addrs, line_number):
        resolved = []
        for operand in operands:
            if isinstance(operand, LabelRef):
                if operand.name not in label_addrs:
                    raise AssemblerError(
                        "undefined label %r" % operand.name, line_number
                    )
                resolved.append(Imm(label_addrs[operand.name]))
            else:
                resolved.append(operand)
        return tuple(resolved)


def assemble(source, base=None, entry=None):
    """Assemble SX86 ``source`` text into a :class:`~repro.isa.program.Program`.

    ``base`` overrides any ``.base`` directive; ``entry`` overrides any
    ``.entry`` directive.  Raises :class:`~repro.errors.AssemblerError`
    with a line number on the first problem found.
    """
    assembler = Assembler()
    assembler.feed(source)
    if base is not None:
        assembler.base = base
    if entry is not None:
        assembler.entry_label = entry
    return assembler.finish(source=source)
