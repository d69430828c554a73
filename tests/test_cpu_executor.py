"""Interpreter semantics: ALU flags, control flow, REP, counting."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cpu import ExecutionStream, Executor, Machine, run_program
from repro.cpu import executor as executor_module
from repro.cpu.events import EDGE_CALL, EDGE_COND, EDGE_IND_JMP, EDGE_RET, EDGE_SPLIT
from repro.errors import ExecutionError, InstructionLimitExceeded
from repro.isa import Program, assemble
from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Reg
from repro.isa.registers import EAX, EBX, ECX
from repro.workloads import load_benchmark


def run(source, **kwargs):
    machine = Machine()
    events = []
    result = run_program(
        assemble(source), on_event=events.append, machine=machine, **kwargs
    )
    return machine, result, events


# ---------------------------------------------------------------------
# arithmetic and flags
# ---------------------------------------------------------------------

def test_mov_and_add():
    machine, _, _ = run("main:\n    mov eax, 5\n    add eax, 7\n    hlt")
    assert machine.regs[0] == 12


def test_add_wraps_32_bits():
    machine, _, _ = run("""
main:
    mov eax, 0x7FFFFFFF
    add eax, 0x7FFFFFFF
    add eax, 2
    hlt
""")
    assert machine.regs[0] == 0  # 0xFFFFFFFE + 2 wraps
    assert machine.zf == 1
    assert machine.cf == 1


def test_sub_borrow_and_overflow_flags():
    machine, _, _ = run("main:\n    mov eax, 1\n    sub eax, 2\n    hlt")
    assert machine.regs[0] == 0xFFFFFFFF
    assert machine.cf == 1  # unsigned borrow
    assert machine.sf == 1
    assert machine.of == 0


def test_cmp_sets_flags_without_writing():
    machine, _, _ = run("main:\n    mov eax, 3\n    cmp eax, 3\n    hlt")
    assert machine.regs[0] == 3
    assert machine.zf == 1


def test_logic_ops_clear_cf_of():
    machine, _, _ = run("""
main:
    mov eax, 0xF0
    and eax, 0x0F
    hlt
""")
    assert machine.regs[0] == 0
    assert machine.zf == 1 and machine.cf == 0 and machine.of == 0


def test_xor_self_zeroes():
    machine, _, _ = run("main:\n    mov eax, 123\n    xor eax, eax\n    hlt")
    assert machine.regs[0] == 0 and machine.zf == 1


def test_imul_signed():
    machine, _, _ = run("main:\n    mov eax, -3\n    imul eax, 7\n    hlt")
    assert machine.regs[0] == (-21) & 0xFFFFFFFF


def test_imul_overflow_sets_cf_of():
    machine, _, _ = run("""
main:
    mov eax, 0x10000
    imul eax, 0x10000
    hlt
""")
    assert machine.cf == 1 and machine.of == 1


def test_shifts():
    machine, _, _ = run("""
main:
    mov eax, 1
    shl eax, 4
    mov ebx, 0x80000000
    shr ebx, 31
    mov ecx, 0x80000000
    sar ecx, 31
    hlt
""")
    assert machine.regs[0] == 16
    assert machine.regs[1] == 1
    assert machine.regs[2] == 0xFFFFFFFF


def test_inc_dec_preserve_cf():
    machine, _, _ = run("""
main:
    mov eax, 1
    sub eax, 2
    inc ebx
    hlt
""")
    assert machine.cf == 1  # inc must not clobber the borrow


def test_neg_and_not():
    machine, _, _ = run("""
main:
    mov eax, 5
    neg eax
    mov ebx, 0
    not ebx
    hlt
""")
    assert machine.regs[0] == (-5) & 0xFFFFFFFF
    assert machine.regs[1] == 0xFFFFFFFF


def test_lea_computes_address_without_touching_memory():
    machine, _, _ = run("""
main:
    mov ebx, 0x100
    mov ecx, 4
    lea eax, [ebx+ecx*4+8]
    hlt
""")
    assert machine.regs[0] == 0x100 + 16 + 8
    assert not machine.mem


# ---------------------------------------------------------------------
# memory and stack
# ---------------------------------------------------------------------

def test_load_store():
    machine, _, _ = run("""
main:
    mov ebx, 0x2000
    mov eax, 99
    mov [ebx+4], eax
    mov ecx, [ebx+4]
    hlt
""")
    assert machine.regs[2] == 99
    assert machine.load(0x2004) == 99


def test_push_pop_lifo():
    machine, _, _ = run("""
main:
    mov eax, 1
    mov ebx, 2
    push eax
    push ebx
    pop ecx
    pop edx
    hlt
""")
    assert machine.regs[2] == 2
    assert machine.regs[3] == 1


def test_uninitialised_memory_reads_zero():
    machine, _, _ = run("main:\n    mov eax, [0x9999]\n    hlt")
    assert machine.regs[0] == 0


# ---------------------------------------------------------------------
# control flow
# ---------------------------------------------------------------------

@pytest.mark.parametrize("cc,lhs,rhs,taken", [
    ("jz", 5, 5, True), ("jz", 5, 6, False),
    ("jnz", 5, 6, True), ("jnz", 5, 5, False),
    ("jl", -1, 1, True), ("jl", 1, -1, False),
    ("jge", 1, -1, True), ("jge", -1, 1, False),
    ("jle", 3, 3, True), ("jg", 4, 3, True), ("jg", 3, 3, False),
    ("jb", 1, 2, True), ("jb", 0xFFFFFFFF, 1, False),  # unsigned
    ("jae", 2, 2, True), ("jbe", 2, 2, True),
    ("ja", 3, 2, True), ("ja", 2, 2, False),
    ("js", -5, 0, True), ("jns", 5, 0, True),
])
def test_conditional_branches(cc, lhs, rhs, taken):
    machine, _, _ = run("""
main:
    mov eax, %d
    cmp eax, %d
    %s taken_path
    mov ebx, 111
    hlt
taken_path:
    mov ebx, 222
    hlt
""" % (lhs, rhs, cc))
    assert machine.regs[1] == (222 if taken else 111)


def test_loop_iterates_exact_count():
    machine, result, events = run("""
main:
    mov ecx, 10
loop:
    add eax, 1
    dec ecx
    jnz loop
    hlt
""")
    assert machine.regs[0] == 10
    taken = [e for e in events if e.taken]
    assert len(taken) == 9  # last jnz falls through


def test_call_ret_nesting():
    machine, _, events = run("""
main:
    call outer
    hlt
outer:
    call inner
    add eax, 1
    ret
inner:
    add eax, 10
    ret
""")
    assert machine.regs[0] == 11
    kinds = [e.kind for e in events]
    assert kinds.count(EDGE_CALL) == 2
    assert kinds.count(EDGE_RET) == 2


def test_indirect_jump_through_table():
    machine, _, events = run("""
main:
    mov ebx, 1
    mov eax, [table+ebx*4]
    jmp eax
a:  mov edx, 1
    hlt
b:  mov edx, 2
    hlt
.data
table: .word a, b
""")
    assert machine.regs[3] == 2
    assert any(e.kind == EDGE_IND_JMP for e in events)


def test_indirect_call_through_register():
    machine, _, _ = run("""
main:
    mov eax, target
    call eax
    hlt
target:
    mov ebx, 77
    ret
""")
    assert machine.regs[1] == 77


def test_control_to_noncode_raises():
    with pytest.raises(ExecutionError):
        run("main:\n    jmp eax\n    hlt")  # eax = 0: not code


def test_instruction_budget_enforced():
    with pytest.raises(InstructionLimitExceeded):
        run("""
main:
loop:
    add eax, 1
    jmp loop
""", max_instructions=1000)


# ---------------------------------------------------------------------
# events and counting (the Section 4.1 semantics)
# ---------------------------------------------------------------------

def test_event_counts_sum_to_totals():
    machine, result, events = run("""
main:
    mov ecx, 7
loop:
    add eax, 3
    dec ecx
    jnz loop
    hlt
""")
    consumed = sum(e.instrs_dbt for e in events)
    assert result.instrs_dbt - consumed == 1  # the trailing hlt block
    assert result.instrs_pin == result.instrs_dbt  # no REP anywhere


def test_rep_counts_differ_between_dbt_and_pin():
    machine, result, events = run("""
main:
    mov ecx, 12
    mov esi, src
    mov edi, dst
    rep movsd
    hlt
.data
src: .word 1,2,3,4,5,6,7,8,9,10,11,12
dst: .zero 12
""")
    assert machine.load(machine.regs[5] - 4) == 12  # last word copied
    split = [e for e in events if e.kind == EDGE_SPLIT]
    assert len(split) == 1
    assert split[0].instrs_pin - split[0].instrs_dbt == 11  # 12 iterations vs 1
    assert result.instrs_pin - result.instrs_dbt == 11


def test_rep_stosd_fills():
    machine, _, _ = run("""
main:
    mov eax, 0xAB
    mov ecx, 5
    mov edi, buf
    rep stosd
    hlt
.data
buf: .zero 5
""")
    base = machine.regs[5] - 20
    assert all(machine.load(base + 4 * i) == 0xAB for i in range(5))


def test_rep_with_zero_count_is_noop():
    machine, result, _ = run("""
main:
    mov ecx, 0
    mov esi, 0x100
    mov edi, 0x200
    rep movsd
    hlt
""")
    assert 0x200 not in machine.mem


def test_cpuid_splits_but_does_not_branch():
    _, _, events = run("main:\n    cpuid\n    hlt")
    assert events[0].kind == EDGE_SPLIT
    assert not events[0].taken
    assert events[0].target == events[0].pc + 2


def test_is_backward_property():
    _, _, events = run("""
main:
    mov ecx, 3
loop:
    dec ecx
    jnz loop
    hlt
""")
    taken = [e for e in events if e.taken]
    assert all(e.is_backward for e in taken)
    fallthrough = [e for e in events if not e.taken and e.kind == EDGE_COND]
    assert all(not e.is_backward for e in fallthrough)


def test_deterministic_execution():
    source = """
main:
    mov ecx, 50
    mov eax, 12345
loop:
    imul eax, 1103515245
    add eax, 12345
    dec ecx
    jnz loop
    hlt
"""
    first = Machine()
    second = Machine()
    run_program(assemble(source), machine=first)
    run_program(assemble(source), machine=second)
    assert first.snapshot() == second.snapshot()


def _block(executor, label):
    """The translated block starting at ``label``: ``(body, size, ...)``."""
    return executor._blocks[executor.program.label_addr(label)]


def test_closures_shared_per_instruction_and_live_flags():
    """Equal ``(opcode, operands, live flags)`` share one closure; the
    same instruction with some of its flags overwritten later in its
    block gets another."""
    program = assemble("""
main:
    mov ecx, 2
loop:
    add eax, [ebx+8]
    jnz next
next:
    add eax, [ebx+8]
    dec ecx
    jnz loop
tail:
    add eax, [ebx+8]
    jz done
done:
    add eax, [ebx+8]
    cmp eax, 0
    hlt
""")
    executor = Executor(program, machine=Machine())
    executor.machine.regs[EBX] = 0x1000
    executor.machine.mem[0x1008] = 5
    result = executor.run()
    assert result.halted
    assert executor.machine.regs[EAX] == 30
    all_live = _block(executor, "loop")[0]
    assert len(all_live) == 1  # the jnz is the terminator
    assert _block(executor, "tail")[0][0] is all_live[0]
    # ``dec`` writes all flags but CF: the add before it stores CF only.
    cf_live = _block(executor, "next")[0][0]
    # ``cmp`` overwrites all four flags: the add before it stores none.
    none_live = _block(executor, "done")[0][0]
    assert len({id(all_live[0]), id(cf_live), id(none_live)}) == 3
    # mov; add with all, CF-only and no flags live; dec; cmp.
    assert len(executor._closures) == 6
    # Re-translating a block reuses the executor's closures.
    executor._blocks.clear()
    executor.machine.regs[ECX] = 2
    assert executor.run().halted
    assert _block(executor, "loop")[0][0] is all_live[0]


def test_jump_into_the_middle_of_a_straight_line_run():
    """A block entered mid-run is translated on its own, sharing the
    closures of the longer block it overlaps."""
    program = assemble("""
main:
    mov ecx, 3
    jmp middle
top:
    add eax, 1
    shl eax, 1
middle:
    add eax, 10
    dec ecx
    jnz top
    hlt
""")
    machine = Machine()
    executor = Executor(program, machine=machine)
    result = executor.run()
    assert result.halted
    assert machine.regs[EAX] == ((10 + 1) * 2 + 10 + 1) * 2 + 10
    top_body, top_size = _block(executor, "top")[:2]
    middle_body, middle_size = _block(executor, "middle")[:2]
    assert (top_size, middle_size) == (5, 3)
    assert top_body[-2:] == middle_body
    assert result.instrs_dbt == 2 + 3 + 5 + 5 + 1


def _refused(program, opcode, operands):
    """``program`` with its first ``opcode`` instruction given
    ``operands`` the assembler refuses, so only the interpreter sees
    them."""
    first = next(i for i in program.instructions if i.opcode == opcode)
    return Program(
        [Instruction(opcode, operands, i.addr, i.length, i.target)
         if i is first else i for i in program.instructions],
        program.labels, program.entry, base=program.base, data=program.data)


def test_unexecutable_instruction_raises_when_its_block_is_reached():
    source = """
main:
    mov eax, 7
    cmp eax, %d
    jz bad
    hlt
bad:
    mov ebx, 1
    lea eax, [ebx]
    hlt
"""
    lea_of_a_register = (Reg(EAX), Reg(EBX))
    program = _refused(assemble(source % 0), "lea", lea_of_a_register)
    executor = Executor(program, machine=Machine())  # not translated yet
    assert executor.run().halted  # the bad block never runs
    machine = Machine()
    with pytest.raises(ExecutionError, match="lea needs a memory operand"):
        run_program(_refused(assemble(source % 7), "lea", lea_of_a_register),
                    machine=machine)
    assert machine.regs[EBX] == 0  # raised before its block ran
    with pytest.raises(ExecutionError, match="immediate"):
        run_program(_refused(assemble("main:\n    mov eax, 5\n    hlt"),
                             "mov", (Imm(5), Reg(EAX))))


def test_threads_translating_at_once_record_the_serial_streams(monkeypatch):
    """The process-wide template cache is filled by racing threads; every
    stream still matches a serial recording."""
    programs = [load_benchmark(name, scale=0.25).program
                for name in ("176.gcc", "164.gzip", "181.mcf", "253.perlbmk")]
    expected = [ExecutionStream.record(p).to_bytes() for p in programs] * 2
    monkeypatch.setattr(executor_module, "_TEMPLATES", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(ExecutionStream.record, program)
                       for program in programs * 2]
            recorded = [future.result(timeout=120).to_bytes()
                        for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert recorded == expected
    assert executor_module._TEMPLATES
