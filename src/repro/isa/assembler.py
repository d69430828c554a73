"""Two-pass assembler for SX86: a text parser and the back half it feeds.

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

Pass one takes records: ``(label, opcode, operands)`` for code and
``(label, directive, payload)`` for data.  The workload generator emits
them (:func:`assemble_records`); :func:`assemble` parses each line of
text into one and feeds it to the same entry, so every check lives in
one place.  Pass two lays out code from the base address (data follows
code, 16-byte aligned) and resolves every
:class:`~repro.isa.operands.LabelRef` into an address — branch targets
land in ``Instruction.target``, data references become immediates or
memory displacements.

The entry checks each code record once, keyed on its identity, and
swaps its operand tuple for an equal one seen before: equal operands
share one tuple, which the memos keyed on ``(opcode, id(operands))``
downstream (``Program.content_digest``, ``encode_image``, the
interpreter's decode) rely on.  A :class:`~repro.isa.operands.LabelMem`
is a template: each instruction gets its own :class:`Mem`, whose
``disp`` pass two patches.  Every memo lives and dies with its
:class:`Assembler`.
"""

import re

from repro.errors import AssemblerError
from repro.isa.encoding import instruction_length
from repro.isa.instructions import OPCODES, Instruction, is_direct_branch
from repro.isa.operands import Imm, LabelMem, LabelRef, Mem, Reg
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


class Assembler:
    """Stateful assembler; most callers use :func:`assemble` or
    :func:`assemble_records` instead."""

    def __init__(self):
        self.base = None
        self.entry_label = None
        self.instructions = []
        self.patches = []  # (position, patch flags, line) for pass two
        # code label -> position of the instruction it names (past the
        # last one for a trailing label); pass two makes it an address
        self.labels = {}
        # (Mem, label, extra disp, line) of each label in a displacement
        self.mem_fixups = []
        self.data_items = []  # (kind, payload, line) in layout order
        self.in_data = False
        # id(record) -> (record, opcode, shared operands, length, patch
        # flags, LabelMem slots) of each unlabelled code record; holding
        # the record keeps its id unique.
        self._known = {}
        self._shared = {}  # operand tuple -> the first equal one seen
        self._sized = {}  # (opcode, operand types) -> _size() result

    # ------------------------------------------------------------------
    # pass one: records
    # ------------------------------------------------------------------

    def add_code(self, records, line=1):
        """Append ``(label, opcode, operands)`` code records, numbered
        from source line ``line``: ``label`` (or ``None``) names the next
        instruction, and ``opcode`` is ``None`` for a label alone."""
        known = self._known
        instructions = self.instructions
        patches = self.patches
        new = Instruction.__new__
        for line, record in enumerate(records, line):
            entry = known.get(id(record))
            if entry is None:
                label, opcode, operands = record
                if label is not None:
                    self._define_label(label, line)
                if opcode is None:
                    continue
                entry = self._first_sight(record, line)
                if label is None:
                    known[id(record)] = entry
            _, opcode, operands, length, patch, slots = entry
            if slots:
                operands = _place(operands, slots, line, self.mem_fixups)
            if patch:
                patches.append((len(instructions), patch, line))
            instruction = new(Instruction)
            instruction.opcode = opcode
            instruction.operands = operands
            instruction.length = length
            instruction.target = None
            instructions.append(instruction)

    def add_data(self, records, line=1):
        """Append ``(label, directive, payload)`` data records, numbered
        from source line ``line``: ``(".zero", count)``, ``(".word",
        values)`` with each value a number's or a label's text, or
        ``(None, None)`` for a label alone."""
        self.in_data = True
        for line, (label, directive, payload) in enumerate(records, line):
            if label is not None:
                self._define_label(label, line)
            if directive == ".word":
                if not payload:
                    raise AssemblerError(".word needs at least one value",
                                         line)
            elif directive == ".zero":
                if payload <= 0:
                    raise AssemblerError(".zero needs a positive count", line)
            elif directive is None:
                continue
            else:
                raise AssemblerError("unknown directive %r" % directive, line)
            self.data_items.append((directive, payload, line))

    def _first_sight(self, record, line):
        """The instruction of a code record not seen before, with its
        operand tuple swapped for an equal one seen before, if any."""
        opcode, operands = record[1:]
        operands = self._shared.setdefault(operands, operands)
        kinds = tuple(map(type, operands))
        sized = self._sized.get((opcode, kinds))
        if sized is None:
            sized = self._size(opcode, operands, kinds, line)
        return (record, opcode, operands) + sized

    def _size(self, opcode, operands, kinds, line):
        """``(length, patch flags, LabelMem slots)`` of ``opcode
        operands``, after checking them; kept for every instruction of
        the same opcode and operand types when no operand's value can
        change its length."""
        spec = OPCODES.get(opcode)
        if spec is None:
            raise AssemblerError("unknown opcode %r" % (opcode,), line)
        if len(operands) != spec.arity:
            raise AssemblerError("%s takes %d operand(s), got %d"
                                 % (opcode, spec.arity, len(operands)), line)
        slots = ()
        placed = operands
        if LabelMem in kinds:
            slots = tuple(slot for slot, kind in enumerate(kinds)
                          if kind is LabelMem)
            placed = _place(operands, slots, line, [])
        for slot, refused, takes in _REFUSED_OPERANDS.get(spec.kind, ()):
            if isinstance(placed[slot], refused):
                raise AssemblerError(
                    "%s takes %s as operand %d, not %r"
                    % (opcode, takes, slot + 1, str(operands[slot])), line)
        patch = _RESOLVE if LabelRef in kinds else 0
        if is_direct_branch(opcode, placed):
            patch |= _DIRECT
        sized = (instruction_length(opcode, placed), patch, slots)
        if Imm not in kinds and Mem not in kinds and not slots:
            self._sized[opcode, kinds] = sized
        return sized

    def _define_label(self, name, line_number):
        if name in self.labels:
            raise AssemblerError("duplicate label %r" % name, line_number)
        if self.in_data:
            self.data_items.append(("label", name, line_number))
        else:
            self.labels[name] = len(self.instructions)

    # ------------------------------------------------------------------
    # pass one: parsing text into records
    # ------------------------------------------------------------------

    def feed(self, source):
        for line_number, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw)
            if line:
                self._feed_line(line, line_number)

    def _feed_line(self, line, line_number):
        """Parse one comment-free line."""
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
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        if mnemonic == "rep":
            mnemonic = "rep_" + operand_text.strip().lower()
            operand_text = ""
        operands = self._parse_operands(operand_text, line_number)
        self.add_code(((None, mnemonic, operands),), line_number)

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
        elif name in (".word", ".zero"):
            if not self.in_data:
                raise AssemblerError("%s outside .data section" % name,
                                     line_number)
            if name == ".zero":
                payload = _parse_number(argument)
            else:
                payload = ([value.strip() for value in argument.split(",")]
                           if argument else [])
                if "" in payload:
                    raise AssemblerError("empty .word value in %r" % argument,
                                         line_number)
            self.add_data(((None, name, payload),), line_number)
        else:
            raise AssemblerError("unknown directive %r" % name, line_number)

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
        if label is not None:
            return LabelMem(label, base, index, scale, disp)
        return Mem(base=base, index=index, scale=scale, disp=disp)

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
        addr = base
        for instruction in instructions:
            instruction.addr = addr
            addr += instruction.length
        code_end = addr
        label_addrs = {}
        for name, position in self.labels.items():
            # A trailing code label (e.g. an 'end:' after the last hlt)
            # pins to the end-of-code address.
            label_addrs[name] = (instructions[position].addr
                                 if position < len(instructions) else code_end)

        data_addr = (code_end + 15) & ~15
        data = {}
        deferred_words = []  # (addr, label, line)
        for kind, payload, line_number in self.data_items:
            if kind == "label":
                if payload in label_addrs:
                    raise AssemblerError("duplicate label %r" % payload, line_number)
                label_addrs[payload] = data_addr
            elif kind == ".word":
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
            else:
                for _ in range(payload):
                    data[data_addr] = 0
                    data_addr += 4

        for word_addr, label, line_number in deferred_words:
            if label not in label_addrs:
                raise AssemblerError("undefined label %r" % label, line_number)
            data[word_addr] = label_addrs[label] & 0xFFFFFFFF

        for mem, label, extra_disp, line_number in self.mem_fixups:
            if label not in label_addrs:
                raise AssemblerError("undefined label %r" % label, line_number)
            mem.disp = label_addrs[label] + extra_disp

        resolved = {}  # id(operands) -> (operands, resolved operands)
        for position, patch, line_number in self.patches:
            instruction = instructions[position]
            if patch & _RESOLVE:
                operands = instruction.operands
                known = resolved.get(id(operands))
                if known is None:
                    known = resolved[id(operands)] = (
                        operands, self._resolve_operands(
                            operands, label_addrs, line_number))
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
    def _resolve_operands(operands, label_addrs, line_number):
        for operand in operands:
            if isinstance(operand, LabelRef) and operand.name not in label_addrs:
                raise AssemblerError("undefined label %r" % operand.name, line_number)
        return tuple([Imm(label_addrs[operand.name]) if isinstance(operand, LabelRef)
                      else operand for operand in operands])


def _place(operands, slots, line, fixups):
    """``operands`` with a :class:`Mem` of its own, due for patching in
    pass two, for each :class:`LabelMem` in ``slots``; each patch is
    appended to ``fixups``."""
    placed = list(operands)
    for slot in slots:
        template = placed[slot]
        placed[slot] = mem = Mem(template.base, template.index,
                                 template.scale, _PENDING_DISP)
        fixups.append((mem, template.label, template.disp, line))
    return tuple(placed)


def _record_lines(records):
    """SX86 text of code or data records, one line per record:
    :meth:`Assembler.feed` reads each line back as its record."""
    lines = []
    for label, name, arguments in records:
        if name is None:
            lines.append("%s:" % label)
            continue
        text = name.replace("rep_", "rep ")
        if isinstance(arguments, int):
            text += " %d" % arguments
        elif arguments:
            text += " " + ", ".join(map(str, arguments))
        lines.append("    " + text if label is None else "%s: %s" % (label, text))
    return lines


def records_source(code, data=()):
    """The SX86 text :func:`assemble` builds the same program from as
    :func:`assemble_records` builds from ``code`` and ``data``."""
    lines = _record_lines(code)
    if data:
        lines.append(".data")
        lines.extend(_record_lines(data))
    return "\n".join(lines) + "\n"


def assemble_records(code, data=()):
    """Assemble code and data records (:meth:`Assembler.add_code`,
    :meth:`Assembler.add_data`) into a :class:`~repro.isa.program.Program`
    without text.  An :class:`~repro.errors.AssemblerError` carries the
    line number the problem has in :func:`records_source`."""
    assembler = Assembler()
    assembler.add_code(code)
    assembler.add_data(data, len(code) + 2)
    return assembler.finish()


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
