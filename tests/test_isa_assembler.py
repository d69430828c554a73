"""Assembler tests: syntax, layout, labels, data, diagnostics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AssemblerError
from repro.isa import Imm, Mem, Reg, assemble
from repro.isa.assembler import Assembler
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


def test_mnemonic_ends_at_any_whitespace():
    spaced = assemble("main:\n    mov eax, 1\n    rep movsd\n    hlt")
    tabbed = assemble("main:\n\tmov\teax, 1\n\trep\tmovsd\n\thlt")
    wide = assemble("main:\n    mov  \t eax, 1\n    rep \t movsd\n    hlt")
    for program in (tabbed, wide):
        assert program.content_digest() == spaced.content_digest()
    assert tabbed.instructions[0].operands == (Reg(0), Imm(1))
    assert tabbed.instructions[1].opcode == "rep_movsd"


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


def test_repeated_line_is_parsed_once():
    program = assemble("""
main:
    mov eax, [ebx+4]
    add eax, 1
    mov eax, [ebx+4]
    add eax, 1
    hlt
""")
    first, add, second, add_again, _ = program.instructions
    assert first is not second
    assert (first.opcode, first.operands) == (second.opcode, second.operands)
    assert first.operands is second.operands
    assert add.operands is add_again.operands
    assert second.length == first.length
    assert second.addr == add.addr + add.length
    assert add_again.addr == second.addr + second.length


def test_repeated_line_inside_data_is_still_refused():
    with pytest.raises(AssemblerError) as excinfo:
        assemble("main:\n    nop\n.data\n    nop")
    assert "inside .data" in str(excinfo.value)
    assert "line 4" in str(excinfo.value)


def test_label_before_a_repeated_line_binds_to_it():
    program = assemble("main:\n    add eax, 1\nagain:\n    add eax, 1\n"
                       "    jmp again")
    assert program.label_addr("again") == program.instructions[1].addr
    assert program.instructions[2].target == program.instructions[1].addr


def test_label_branches_share_one_resolved_operand_tuple():
    program = assemble("main:\n    jnz main\n    jz main\n    jmp main")
    operands = [instr.operands for instr in program]
    assert operands[0] is operands[1] is operands[2]
    assert operands[0] == (Imm(program.base),)
    assert all(instr.target == program.base for instr in program)


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
    ("main:\n    mov eax,,1", "empty operand"),
    ("main:\n    push ,eax", "empty operand"),
    ("main:\n    mov eax, 1,", "empty operand"),
    ("main:\n    mov [ebx+4],,eax", "empty operand"),
    ("main:\n    mov eax, [ebx+4", "unbalanced '['"),
    ("main:\n    mov eax, ebx+4]", "unbalanced ']'"),
    ("main:\n    mov eax, [ebx + + 4]", "cannot parse ''"),
    ("main:\n    mov eax, [+]", "empty memory operand"),
])
def test_assembler_error_messages(source, fragment):
    with pytest.raises(AssemblerError) as excinfo:
        assemble(source)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("source,fragment", [
    # Operand forms the parser reads but no encoding exists for.
    ("main:\n    nop\n    jnz eax", "jnz takes a label or an address"),
    ("main:\n    nop\n    jz [eax]", "jz takes a label or an address"),
    ("main:\n    nop\n    push main", "push takes a register"),
    ("main:\n    nop\n    inc main", "inc takes a register"),
    ("main:\n    nop\n    neg 5", "neg takes a register"),
    # Destinations the interpreter cannot write, and lea of a non-address.
    ("main:\n    nop\n    pop 5", "pop takes a register or a memory "
     "operand as operand 1, not '5'"),
    ("main:\n    nop\n    mov main, eax", "mov takes a register"),
    ("main:\n    nop\n    add 5, eax", "add takes a register"),
    ("main:\n    nop\n    mov 5, eax", "mov takes a register"),
    ("main:\n    nop\n    lea eax, ebx", "lea takes a memory operand as "
     "operand 2, not 'ebx'"),
    # An empty value would move every later data label up a word.
    ("main:\n.data\nbuf: .word 1,,2\nend: .word 3", "empty .word value"),
    ("main:\n.data\nbuf: .word 1,", "empty .word value"),
])
def test_unencodable_text_is_refused_with_its_line(source, fragment):
    with pytest.raises(AssemblerError) as excinfo:
        assemble(source)
    assert fragment in str(excinfo.value)
    assert "line 3" in str(excinfo.value)


@pytest.mark.parametrize("source", [
    "main:\n    nop\n    mov eax,,1",
    "main:\n    nop\n    push ,eax",
])
def test_empty_operand_reports_its_line(source):
    with pytest.raises(AssemblerError) as excinfo:
        assemble(source)
    assert "line 3" in str(excinfo.value)


@pytest.mark.parametrize("text,expected", [
    ("[ebx+4]", Mem(base=1, disp=4)),
    ("[+ebx++4+]", Mem(base=1, disp=4)),
    ("[ ebx + ecx*4 + 8 ]", Mem(base=1, index=2, scale=4, disp=8)),
    ("[ebx-4]", Mem(base=1, disp=-4)),
    ("[ebx+-4]", Mem(base=1, disp=-4)),
    ("[--8]", Mem(disp=8)),
])
def test_memory_terms_split_the_same_with_or_without_signs(text, expected):
    program = assemble("main:\n    mov eax, %s\n    hlt" % text)
    assert program.instructions[0].operands[1] == expected


def _reference_pieces(text):
    """Character-loop split at top-level commas, keeping empty pieces;
    ``None`` when the brackets do not balance."""
    pieces, depth, current = [], 0, []
    for char in text:
        depth += {"[": 1, "]": -1}.get(char, 0)
        if depth < 0:
            return None
        if char == "," and depth == 0:
            pieces.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    pieces.append("".join(current).strip())
    return pieces if depth == 0 else None


def _reference_terms(inner):
    """Character-loop split of memory terms at signs."""
    terms, sign, current = [], 1, []
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
    return terms


_TERM_TOKENS = ["eax", "ebx", "4", "0x10", "buf", " ", "+", "-", "*"]
_OPERAND_TEXT = st.lists(st.sampled_from(_TERM_TOKENS + [",", "[", "]"]),
                         min_size=1, max_size=12).map("".join)
_TERM_TEXT = st.lists(st.sampled_from(_TERM_TOKENS), min_size=1,
                      max_size=12).map("".join)


@given(_OPERAND_TEXT)
def test_operand_split_matches_the_character_loop(text):
    """``str.split`` stands in for the loop on text without brackets."""
    reference = _reference_pieces(text)
    if reference is None:
        with pytest.raises(AssemblerError, match="unbalanced"):
            Assembler._split_operands(text, 1)
    elif "" in reference:
        with pytest.raises(AssemblerError, match="empty operand"):
            Assembler._split_operands(text, 1)
    else:
        assert Assembler._split_operands(text, 1) == reference


@given(_TERM_TEXT)
def test_memory_terms_match_the_character_loop(inner):
    """``str.split`` stands in for the loop on terms without a '-'."""
    inner = inner.strip()
    reference = _reference_terms(inner)
    if not inner or not reference:
        with pytest.raises(AssemblerError, match="empty memory operand"):
            Assembler._terms(inner, 1)
    else:
        assert Assembler._terms(inner, 1) == reference


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
