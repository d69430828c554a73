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

Pass one parses instructions, lays out code from the base address and
records label addresses (data follows code, 16-byte aligned).  Pass two
resolves every :class:`~repro.isa.operands.LabelRef` into an address —
branch targets land in ``Instruction.target``, data references become
immediates or memory displacements.

Both passes translate each distinct instruction once.  Pass one parses
each distinct operand text once and shares the resulting operand tuple
between every instruction spelling it, except texts with a memory
operand naming a label: pass two patches that operand's ``disp`` in
place, so it stays private to its instruction.  Pass two computes the
length and resolution shape once per distinct ``(opcode, operands)``.
Every memo lives and dies with its :class:`Assembler`.
"""

import re

from repro.errors import AssemblerError
from repro.isa.encoding import instruction_length
from repro.isa.instructions import Instruction, OPCODES
from repro.isa.operands import Imm, LabelRef, Mem, Reg
from repro.isa.program import DEFAULT_BASE, Program
from repro.isa.registers import is_register_name, register_index

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_NUMBER_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")
_IDENT_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

#: Sentinel displacement used for not-yet-resolved label displacements so
#: pass-one layout reserves a full disp32.
_PENDING_DISP = 0x7FFFFFFF


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
        self.labels = {}
        self.pending_labels = []
        self.mem_fixups = []
        self.data_items = []  # (kind, payload, line) in layout order
        self.in_data = False
        self._operand_memo = {}  # label-free operand text -> operand tuple

    # ------------------------------------------------------------------
    # pass one: parsing
    # ------------------------------------------------------------------

    def feed(self, source):
        for line_number, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            self._feed_line(line, line_number)

    def _feed_line(self, line, line_number):
        match = _LABEL_RE.match(line)
        if match and not self._looks_like_mem_tail(line):
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
        self._instruction(line, line_number)

    @staticmethod
    def _looks_like_mem_tail(line):
        # "mov eax, [esi+4]" must not be mistaken for a label because of
        # the ':' ... there is no ':' in operands, so any line whose head
        # matches the label regex is genuinely a label.  Kept as a hook
        # should operand syntax ever grow a ':'.
        return False

    def _define_label(self, name, line_number):
        if name in self.labels or name in (pending for pending, _ in self.pending_labels):
            raise AssemblerError("duplicate label %r" % name, line_number)
        if self.in_data:
            self.data_items.append(("label", name, line_number))
        else:
            self.pending_labels.append((name, line_number))

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
            values = [value.strip() for value in argument.split(",") if value.strip()]
            if not values:
                raise AssemblerError(".word needs at least one value", line_number)
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

    def _instruction(self, line, line_number):
        mnemonic, _, operand_text = line.partition(" ")
        mnemonic = mnemonic.lower()
        if mnemonic == "rep":
            rest = operand_text.strip().lower()
            mnemonic = "rep_" + rest
            operand_text = ""
        if mnemonic not in OPCODES:
            raise AssemblerError("unknown opcode %r" % mnemonic, line_number)
        operands = self._operand_memo.get(operand_text)
        if operands is None:
            n_fixups = len(self.mem_fixups)
            operands = self._parse_operands(operand_text, line_number)
            if len(self.mem_fixups) == n_fixups:
                self._operand_memo[operand_text] = operands
        try:
            instruction = Instruction(mnemonic, operands)
        except AssemblerError as error:
            raise AssemblerError(str(error), line_number) from None
        for name, declared_line in self.pending_labels:
            self.labels[name] = len(self.instructions)  # index; addr later
        self.pending_labels = []
        self.instructions.append((instruction, line_number))

    def _parse_operands(self, text, line_number):
        text = text.strip()
        if not text:
            return ()
        operands = []
        for piece in self._split_operands(text, line_number):
            operands.append(self._parse_operand(piece, line_number))
        return tuple(operands)

    @staticmethod
    def _split_operands(text, line_number):
        pieces = []
        depth = 0
        current = []
        for char in text:
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
                if depth < 0:
                    raise AssemblerError("unbalanced ']'", line_number)
            if char == "," and depth == 0:
                pieces.append("".join(current).strip())
                current = []
            else:
                current.append(char)
        if depth != 0:
            raise AssemblerError("unbalanced '['", line_number)
        pieces.append("".join(current).strip())
        return [piece for piece in pieces if piece]

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

        shapes = {}  # (opcode, operands) -> (length, has_label_ref, direct)
        instruction_shapes = []
        addr = base
        for instruction, _line in self.instructions:
            key = (instruction.opcode, instruction.operands)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = self._shape(instruction)
            instruction.addr = addr
            instruction.length = shape[0]
            instruction_shapes.append(shape)
            addr += shape[0]
        code_end = addr
        label_addrs = {}
        for name, position in self.labels.items():
            if position < len(self.instructions):
                label_addrs[name] = self.instructions[position][0].addr
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

        instructions = []
        for (instruction, line_number), (_length, has_label_ref, direct) in zip(
                self.instructions, instruction_shapes):
            if has_label_ref:
                instruction.operands = self._resolve_operands(
                    instruction.operands, label_addrs, line_number)
            if direct:
                instruction.target = instruction.operands[0].value & 0xFFFFFFFF
            instructions.append(instruction)

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
        """``(length, has_label_ref, direct)`` of one distinct instruction;
        ``direct`` marks a branch whose target is its resolved operand."""
        has_label_ref = any(
            isinstance(operand, LabelRef) for operand in instruction.operands
        )
        direct = (instruction.is_control and not instruction.is_indirect
                  and instruction.opcode != "ret"
                  and instruction.opcode != "hlt")
        return (instruction_length(instruction.opcode, instruction.operands),
                has_label_ref, direct)

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
