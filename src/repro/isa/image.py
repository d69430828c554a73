"""Assembled program images: a :class:`Program` stored as data.

A program image lets a host that replays a snapshot rebuild the exact
program the snapshot was recorded against without the generator or
the assembler: decoding parses no text.  The automaton store keeps one
image beside each snapshot (``<snapshot-key>.teap``, see
:mod:`repro.store.store`), bound to that snapshot by its header.

Layout (``docs/architecture.md`` has the table): a fixed little-endian
header, then int64 lanes, then the label names.

header
    magic ``TEAP``, version, the 32-byte key of the artifact the image
    belongs to (``owner``: a snapshot's content key in a store), the
    32-byte :meth:`~repro.isa.program.Program.content_digest` of the
    program, ``base``, ``entry``, the lane lengths, and a CRC-32 over
    every other byte of the file.
``shapes`` (rows of :data:`SHAPE_FIELDS`)
    the distinct ``(opcode, operands)`` pairs in first-use order: the
    opcode's index in :data:`~repro.isa.instructions.OPCODES`, then
    ``(kind, a, b, c, d)`` per operand slot (kind 0 empty, 1 register
    ``a``, 2 immediate ``a``, 3 memory ``[a + b*c + d]`` with -1 for
    an absent register).
``shape_of`` and ``lengths``
    per instruction, its row in ``shapes`` and its byte length; an
    instruction's address is ``base`` plus the lengths before it, and
    a direct branch's target is its immediate operand, as the
    assembler resolves it.
``label_addrs``, ``data``
    label addresses (names in the trailing blob, newline-separated, in
    the same order) and ``(address, word)`` pairs of the data image.

:func:`decode_image` checks the CRC and that the decoded program's
content digest equals the header's, so a decoded image is the program
it claims to be; :func:`check_image_bytes` reports the same problems
as messages (verify rule TEA027).
"""

import struct
import sys
import zlib
from array import array

from repro.errors import ReproError, SerializationError
from repro.isa.instructions import OPCODES, Instruction
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.program import Program

IMAGE_MAGIC = b"TEAP"
IMAGE_VERSION = 1

#: Opcode names by image index.  Changing this order changes every
#: image: bump :data:`IMAGE_VERSION` with it.
_OPCODE_NAMES = tuple(OPCODES)
_OPCODE_IDS = {name: index for index, name in enumerate(_OPCODE_NAMES)}

#: Operand slots per shape row; every SX86 opcode takes at most two.
_SLOTS = 2
#: Ints per row of the ``shapes`` lane.
SHAPE_FIELDS = 1 + 5 * _SLOTS
_REG, _IMM, _MEM = 1, 2, 3

#: magic, version, reserved, owner key, program digest, base, entry,
#: n_shapes, n_instructions, n_labels, n_data, names bytes, crc32,
#: reserved.
_HEADER = struct.Struct("<4sHH32s32s7qII")
HEADER_SIZE = _HEADER.size
#: Offset of the CRC field; the CRC covers every other byte of the file.
_CRC_OFFSET = HEADER_SIZE - 8


def _lane_ints(header):
    """Int64 count of each lane, in file order."""
    return (("shapes", SHAPE_FIELDS * header.n_shapes),
            ("shape_of", header.n_instructions),
            ("lengths", header.n_instructions),
            ("label_addrs", header.n_labels),
            ("data", 2 * header.n_data))


def _image_size(header):
    size = HEADER_SIZE + 8 * sum(count for _name, count in _lane_ints(header))
    size += header.names_bytes
    return size + (-size % 8)


class ImageHeader:
    """The decoded fixed header of a ``TEAP`` program image."""

    __slots__ = ("version", "owner", "program_digest", "base", "entry",
                 "n_shapes", "n_instructions", "n_labels", "n_data",
                 "names_bytes", "crc")

    @classmethod
    def parse(cls, data, size=None):
        """Decode the header from the first bytes of an image.

        ``size`` is the whole image's length (default ``len(data)``),
        which must equal the length the header declares; pass it to
        read a header without reading the image.  Raises
        :class:`SerializationError` on anything else.
        """
        if len(data) < HEADER_SIZE:
            raise SerializationError(
                "program image is %d bytes, shorter than its %d-byte header"
                % (len(data), HEADER_SIZE))
        fields = _HEADER.unpack_from(data, 0)
        if fields[0] != IMAGE_MAGIC:
            raise SerializationError("not a program image (magic %r)"
                                     % (fields[0],))
        header = cls()
        header.version = fields[1]
        if header.version != IMAGE_VERSION:
            raise SerializationError(
                "unknown program image version %d (know %d)"
                % (header.version, IMAGE_VERSION))
        header.owner = fields[3].hex()
        header.program_digest = fields[4].hex()
        (header.base, header.entry, header.n_shapes, header.n_instructions,
         header.n_labels, header.n_data, header.names_bytes) = fields[5:12]
        header.crc = fields[12]
        if min(fields[7:12]) < 0:
            raise SerializationError("program image has negative lane "
                                     "lengths")
        expected = _image_size(header)
        size = len(data) if size is None else size
        if size != expected:
            raise SerializationError(
                "program image is %d bytes; its header declares %d"
                % (size, expected))
        return header


def image_crc(data):
    """CRC-32 of an image, over every byte except the CRC field."""
    view = memoryview(data)
    return zlib.crc32(view[HEADER_SIZE - 4:],
                      zlib.crc32(view[:_CRC_OFFSET])) & 0xFFFFFFFF


def _le_bytes(ints):
    lane = array("q", ints)
    if sys.byteorder != "little":
        lane.byteswap()
    return lane.tobytes()


def _ints(view):
    lane = array("q")
    lane.frombytes(view)
    if sys.byteorder != "little":
        lane.byteswap()
    return lane


def _operand_fields(operand):
    if isinstance(operand, Reg):
        return (_REG, operand.index, 0, 0, 0)
    if isinstance(operand, Imm):
        return (_IMM, operand.value, 0, 0, 0)
    if isinstance(operand, Mem):
        return (_MEM,
                -1 if operand.base is None else operand.base,
                -1 if operand.index is None else operand.index,
                operand.scale, operand.disp)
    raise SerializationError("operand %r has no image encoding" % (operand,))


def _direct(instruction):
    """True for a branch whose target is its (immediate) operand."""
    return (instruction.is_control and not instruction.is_indirect
            and instruction.opcode != "ret" and instruction.opcode != "hlt")


def encode_image(program, owner):
    """The canonical ``TEAP`` image of ``program``, bound to ``owner``
    (a 64-hex-digit key).

    Raises :class:`SerializationError` for a program the layout cannot
    hold: instructions not laid out back to back from ``base``, or a
    branch target other than the one the assembler resolves.
    """
    shapes = {}         # (opcode, operands) -> (row index, direct)
    rows = []
    shape_of = []
    lengths = []
    addr = program.base
    for instr in program.instructions:
        if instr.addr != addr:
            raise SerializationError(
                "instruction at %#x does not follow the one before it "
                "(expected %#x)" % (instr.addr, addr))
        key = (instr.opcode, instr.operands)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = (len(shapes), _direct(instr))
            rows.append(_OPCODE_IDS[instr.opcode])
            for slot in range(_SLOTS):
                rows.extend(_operand_fields(instr.operands[slot])
                            if slot < len(instr.operands) else (0,) * 5)
        row, direct = shape
        want = instr.operands[0].value & 0xFFFFFFFF if direct else None
        if instr.target != want:
            raise SerializationError(
                "branch at %#x targets %r, not its operand" % (addr,
                                                              instr.target))
        shape_of.append(row)
        lengths.append(instr.length)
        addr += instr.length
    if any("\n" in name for name in program.labels):
        raise SerializationError("a label name holds a newline")
    names = "\n".join(program.labels).encode("utf-8")
    data_words = []
    for word_addr, value in program.data.items():
        data_words.extend((word_addr, value))
    body = b"".join((
        _le_bytes(rows), _le_bytes(shape_of), _le_bytes(lengths),
        _le_bytes(program.labels.values()), _le_bytes(data_words), names,
    ))
    body += bytes(-(HEADER_SIZE + len(body)) % 8)
    header = _HEADER.pack(
        IMAGE_MAGIC, IMAGE_VERSION, 0, bytes.fromhex(owner),
        bytes.fromhex(program.content_digest()), program.base,
        program.entry, len(shapes), len(shape_of), len(program.labels),
        len(program.data), len(names), 0, 0)
    image = bytearray(header + body)
    struct.pack_into("<I", image, _CRC_OFFSET, image_crc(image))
    return bytes(image)


def _operand(kind, a, b, c, d):
    if kind == _REG:
        return Reg(a)
    if kind == _IMM:
        return Imm(a)
    if kind == _MEM:
        return Mem(base=None if a < 0 else a, index=None if b < 0 else b,
                   scale=c, disp=d)
    raise SerializationError("unknown operand kind %d" % kind)


def _table(rows):
    """``(opcode, operands, direct)`` per shape row."""
    table = []
    for first in range(0, len(rows), SHAPE_FIELDS):
        opcode_id = rows[first]
        if not 0 <= opcode_id < len(_OPCODE_NAMES):
            raise SerializationError("unknown opcode index %d" % opcode_id)
        opcode = _OPCODE_NAMES[opcode_id]
        arity = OPCODES[opcode].arity
        operands = tuple(
            _operand(*rows[first + 1 + 5 * slot:first + 6 + 5 * slot])
            for slot in range(arity))
        direct = _direct(Instruction(opcode, operands))
        if direct and not isinstance(operands[0], Imm):
            raise SerializationError("%s needs an immediate target" % opcode)
        table.append((opcode, operands, direct))
    return table


def decode_image(data, owner=None):
    """The :class:`Program` an image holds.

    Checks the envelope, the CRC, that the image belongs to ``owner``
    (when given) and that the decoded program's content digest equals
    the header's; raises :class:`SerializationError` naming the first
    problem.  Instructions are built once per image row without
    re-validating each one; the program's ``source`` is ``None``.
    """
    header = ImageHeader.parse(data)
    crc = image_crc(data)
    if crc != header.crc:
        raise SerializationError("CRC mismatch: stored %08x, computed %08x"
                                 % (header.crc, crc))
    if owner is not None and owner != header.owner:
        raise SerializationError("image of %s filed under %s"
                                 % (header.owner[:12], owner[:12]))
    view = memoryview(data)
    offset = HEADER_SIZE
    lanes = {}
    for name, count in _lane_ints(header):
        lanes[name] = _ints(view[offset:offset + 8 * count])
        offset += 8 * count
    try:
        names = bytes(view[offset:offset + header.names_bytes]).decode()
    except UnicodeDecodeError:
        raise SerializationError("label names are not UTF-8") from None
    if header.n_labels and names.count("\n") != header.n_labels - 1:
        raise SerializationError("label names do not match %d label "
                                 "addresses" % header.n_labels)
    try:
        table = _table(lanes["shapes"])
        instructions = []
        append = instructions.append
        new = Instruction.__new__
        addr = header.base
        for row, length in zip(lanes["shape_of"], lanes["lengths"]):
            opcode, operands, direct = table[row]
            instr = new(Instruction)
            instr.opcode = opcode
            instr.operands = operands
            instr.addr = addr
            instr.length = length
            instr.target = (operands[0].value & 0xFFFFFFFF if direct
                            else None)
            append(instr)
            addr += length
        words = lanes["data"]
        program = Program(
            instructions,
            zip(names.split("\n") if header.n_labels else (),
                lanes["label_addrs"]),
            header.entry, base=header.base,
            data=zip(words[0::2], words[1::2]))
        digest = program.content_digest()
    except (IndexError, ReproError) as error:
        raise SerializationError("undecodable instruction table: %s"
                                 % error) from None
    if digest != header.program_digest:
        raise SerializationError(
            "decodes to program %s, but its header names %s"
            % (digest[:12], header.program_digest[:12]))
    return program


def check_image_bytes(data, owner=None):
    """Every problem with image bytes, as a list of messages (empty
    when the image is sound); backs verify rule TEA027."""
    try:
        decode_image(data, owner=owner)
    except SerializationError as error:
        return [str(error)]
    return []
