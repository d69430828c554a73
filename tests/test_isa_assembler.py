"""Assembler tests: syntax, layout, labels, data, diagnostics."""

import pytest

from repro.errors import AssemblerError
from repro.isa import Imm, Mem, Reg, assemble
from repro.isa.program import DEFAULT_BASE


def test_empty_program_has_entry_at_base():
    program = assemble("")
    assert program.entry == DEFAULT_BASE
    assert len(program) == 0
    assert program.code_size_bytes == 0


def test_single_instruction_layout():
    program = assemble("main:\n    nop\n    hlt")
    assert program.entry == DEFAULT_BASE
    nop = program.instructions[0]
    assert nop.opcode == "nop"
    assert nop.addr == DEFAULT_BASE
    assert nop.length == 1
    hlt = program.instructions[1]
    assert hlt.addr == DEFAULT_BASE + 1


def test_instruction_addresses_are_contiguous():
    program = assemble("""
main:
    mov eax, 5
    add eax, ebx
    mov [eax+4], ebx
    hlt
""")
    addr = program.base
    for instr in program:
        assert instr.addr == addr
        addr += instr.length
    assert program.code_end == addr


def test_comments_and_blank_lines_ignored():
    program = assemble("""
; leading comment
main:
    nop        ; trailing comment
    # hash comment
    hlt
""")
    assert [instr.opcode for instr in program] == ["nop", "hlt"]


def test_label_on_same_line_as_instruction():
    program = assemble("main: nop\nloop: hlt")
    assert program.label_addr("loop") == program.base + 1


def test_branch_target_resolution():
    program = assemble("""
main:
    jmp done
    nop
done:
    hlt
""")
    jmp = program.instructions[0]
    assert jmp.target == program.label_addr("done")


def test_backward_branch_target():
    program = assemble("""
main:
loop:
    dec ecx
    jnz loop
    hlt
""")
    jnz = program.instructions[1]
    assert jnz.target == program.label_addr("loop")
    assert jnz.target < jnz.addr


def test_register_operand_parsing():
    program = assemble("main:\n    mov eax, ebx\n    hlt")
    mov = program.instructions[0]
    assert mov.operands == (Reg(0), Reg(1))


def test_immediate_forms():
    program = assemble("""
main:
    mov eax, 42
    mov ebx, -7
    mov ecx, 0x1F
    hlt
""")
    values = [instr.operands[1].value for instr in program.instructions[:3]]
    assert values == [42, -7, 0x1F]


def test_memory_operand_forms():
    program = assemble("""
main:
    mov eax, [ebx]
    mov eax, [ebx+8]
    mov eax, [ebx-4]
    mov eax, [ebx+ecx*4]
    mov eax, [ebx+ecx*4+12]
    mov eax, [0x1000]
    hlt
""")
    mems = [instr.operands[1] for instr in program.instructions[:6]]
    assert mems[0] == Mem(base=1)
    assert mems[1] == Mem(base=1, disp=8)
    assert mems[2] == Mem(base=1, disp=-4)
    assert mems[3] == Mem(base=1, index=2, scale=4)
    assert mems[4] == Mem(base=1, index=2, scale=4, disp=12)
    assert mems[5] == Mem(disp=0x1000)


def test_data_section_words_and_labels():
    program = assemble("""
main:
    hlt
.data
table: .word 1, 2, 3
value: .word 0xFF
""")
    table = program.label_addr("table")
    assert table >= program.code_end
    assert table % 16 == 0
    assert program.data[table] == 1
    assert program.data[table + 4] == 2
    assert program.data[table + 8] == 3
    assert program.data[program.label_addr("value")] == 0xFF


def test_data_word_with_code_label():
    program = assemble("""
main:
    hlt
target:
    nop
.data
jumptable: .word target, main
""")
    table = program.label_addr("jumptable")
    assert program.data[table] == program.label_addr("target")
    assert program.data[table + 4] == program.label_addr("main")


def test_zero_directive_reserves_words():
    program = assemble("main:\n    hlt\n.data\nbuf: .zero 4")
    buf = program.label_addr("buf")
    for offset in range(4):
        assert program.data[buf + 4 * offset] == 0


def test_label_in_memory_displacement():
    program = assemble("""
main:
    mov eax, [buf+8]
    hlt
.data
buf: .word 1, 2, 3
""")
    mem = program.instructions[0].operands[1]
    assert mem.disp == program.label_addr("buf") + 8


def test_label_with_index_register():
    program = assemble("""
main:
    mov eax, [table+ebx*4]
    hlt
.data
table: .word 9
""")
    mem = program.instructions[0].operands[1]
    assert mem.index == 1
    assert mem.scale == 4
    assert mem.disp == program.label_addr("table")


def test_mov_label_as_immediate():
    program = assemble("""
main:
    mov eax, buf
    hlt
.data
buf: .word 0
""")
    assert program.instructions[0].operands[1] == Imm(program.label_addr("buf"))


def test_rep_prefix_parsing():
    program = assemble("main:\n    rep movsd\n    rep stosd\n    hlt")
    assert program.instructions[0].opcode == "rep_movsd"
    assert program.instructions[1].opcode == "rep_stosd"
    assert program.instructions[0].is_rep


def test_entry_directive():
    program = assemble("""
.entry start
other:
    nop
start:
    hlt
""")
    assert program.entry == program.label_addr("start")


def test_base_directive():
    program = assemble(".base 0x400000\nmain:\n    hlt")
    assert program.base == 0x400000
    assert program.entry == 0x400000


def test_base_argument_overrides_directive():
    program = assemble(".base 0x400000\nmain:\n    hlt", base=0x500000)
    assert program.base == 0x500000


def test_trailing_label_points_past_code():
    program = assemble("main:\n    hlt\nend_marker:")
    assert program.label_addr("end_marker") == program.code_end


def test_repeated_operand_text_is_parsed_once():
    program = assemble("""
main:
    mov eax, [ebx+4]
    add eax, 1
    mov eax, [ebx+4]
    add eax, 1
    hlt
""")
    first, _, second, _, _ = program.instructions
    assert first.operands is second.operands
    assert program.instructions[1].operands is program.instructions[3].operands


def test_label_memory_operands_are_never_shared():
    """Pass two patches a label-bearing ``Mem``'s disp in place, so two
    instructions spelling the same text must get their own objects."""
    program = assemble("""
main:
    mov eax, [buf+4]
    mov eax, [buf+4]
    mov eax, [buf+ebx*4]
    mov eax, [buf+ebx*4]
    hlt
.data
buf: .word 1, 2, 3
""")
    buf = program.label_addr("buf")
    mems = [instr.operands[1] for instr in program.instructions[:4]]
    assert len({id(mem) for mem in mems}) == 4
    assert [mem.disp for mem in mems] == [buf + 4, buf + 4, buf, buf]
    mems[0].disp = 0
    assert mems[1].disp == buf + 4


@pytest.mark.parametrize("source,fragment", [
    # Same operand text as the valid line 2, wrong arity for ``inc``.
    ("main:\n    add eax, 1\n    inc eax, 1", "takes 1 operand"),
    # Same text as line 2 minus its closing bracket.
    ("main:\n    mov eax, [ebx+4]\n    mov eax, [ebx+4", "unbalanced"),
])
def test_malformed_repeat_of_valid_text_reports_its_own_line(source,
                                                            fragment):
    with pytest.raises(AssemblerError) as excinfo:
        assemble(source)
    assert fragment in str(excinfo.value)
    assert "line 3" in str(excinfo.value)


# ---------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------

@pytest.mark.parametrize("source,fragment", [
    ("main:\n    bogus eax", "unknown opcode"),
    ("main:\n    mov eax", "takes 2 operand"),
    ("main:\n    jmp missing\n    hlt", "undefined label"),
    ("main:\n    mov eax, [ebx+ecx*3]", "scale must be"),
    ("main:\n    mov eax, [ebx", "unbalanced"),
    ("dup:\n    nop\ndup:\n    hlt", "duplicate label"),
    ("main:\n    .word 5", ".word outside"),
    (".data\n    nop", "inside .data"),
    ("main:\n    mov eax, [ebx+ecx+edx]", "too many registers"),
    (".unknown 3", "unknown directive"),
])
def test_assembler_error_messages(source, fragment):
    with pytest.raises(AssemblerError) as excinfo:
        assemble(source)
    assert fragment in str(excinfo.value)


def test_assembler_errors_carry_line_numbers():
    with pytest.raises(AssemblerError) as excinfo:
        assemble("main:\n    nop\n    bogus eax")
    assert "line 3" in str(excinfo.value)


def test_disassemble_round_trip_reassembles():
    source = """
main:
    mov ecx, 10
loop:
    add eax, 1
    dec ecx
    jnz loop
    hlt
"""
    program = assemble(source)
    listing = program.disassemble()
    # Disassembly renders branch targets as absolute hex addresses;
    # stripping the address column yields reassemblable text.
    lines = []
    for line in listing.splitlines():
        if line.endswith(":"):
            lines.append(line)
        else:
            lines.append("    " + line.strip().split("  ", 1)[1])
    reassembled = assemble("\n".join(lines))
    assert [i.opcode for i in reassembled] == [i.opcode for i in program]
    assert [i.length for i in reassembled] == [i.length for i in program]
