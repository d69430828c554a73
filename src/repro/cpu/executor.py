"""The SX86 interpreter core.

Instructions are pre-compiled once per :class:`Executor` into small
closures over the machine (operand addressing resolved at compile time),
so the hot loop only dispatches on a per-instruction *category* integer.
The loop emits :class:`~repro.cpu.events.EdgeEvent` objects at every
control transfer and block splitter; straight-line instructions are just
counted.

Flag semantics follow IA-32 for the subset the ISA defines: ``cmp``/``sub``
set CF on unsigned borrow and OF on signed overflow; logical ops clear
CF/OF; ``inc``/``dec`` preserve CF.  See the per-opcode compilers below.
"""

import operator

from repro.errors import ExecutionError, InstructionLimitExceeded
from repro.cpu.events import (
    EDGE_CALL,
    EDGE_COND,
    EDGE_IND_CALL,
    EDGE_IND_JMP,
    EDGE_JMP,
    EDGE_RET,
    EDGE_SPLIT,
    EdgeEvent,
)
from repro.cpu.machine import Machine
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import EAX, EBX, ECX, EDI, EDX, ESI, ESP

_MASK = 0xFFFFFFFF

# Instruction categories for the dispatch loop.
_PLAIN = 0
_COND = 1
_JMP = 2
_CALL = 3
_RET = 4
_IND_JMP = 5
_IND_CALL = 6
_REP = 7
_SPLIT = 8
_HLT = 9

#: Default per-run instruction budget (StarDBT counting).
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


def _reader(operand):
    """Compile an operand into a ``fn(machine) -> value`` closure."""
    if isinstance(operand, Reg):
        index = operand.index
        return lambda m: m.regs[index]
    if isinstance(operand, Imm):
        value = operand.value & _MASK
        return lambda m: value
    if isinstance(operand, Mem):
        address = _address(operand)
        return lambda m: m.mem.get(address(m), 0)
    raise ExecutionError("unreadable operand %r" % (operand,))


def _address(mem):
    """Compile a memory operand into an effective-address closure."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
    if base is not None and index is not None:
        return lambda m: (m.regs[base] + m.regs[index] * scale + disp) & _MASK
    if base is not None:
        return lambda m: (m.regs[base] + disp) & _MASK
    if index is not None:
        return lambda m: (m.regs[index] * scale + disp) & _MASK
    fixed = disp & _MASK
    return lambda m: fixed


def _writer(operand):
    """Compile an operand into a ``fn(machine, value)`` closure."""
    if isinstance(operand, Reg):
        index = operand.index
        def write_reg(m, value):
            m.regs[index] = value
        return write_reg
    if isinstance(operand, Mem):
        address = _address(operand)
        def write_mem(m, value):
            m.mem[address(m)] = value
        return write_mem
    raise ExecutionError("unwritable operand %r" % (operand,))


def _signed(value):
    return value - 0x100000000 if value & 0x80000000 else value


def _compile_alu(opcode, instr):
    dst, src = instr.operands
    read_dst = _reader(dst)
    read_src = _reader(src)
    write_dst = _writer(dst)

    if opcode == "add":
        def execute(m):
            a = read_dst(m)
            b = read_src(m)
            total = a + b
            r = total & _MASK
            write_dst(m, r)
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.cf = 1 if total > _MASK else 0
            m.of = ((~(a ^ b) & (a ^ r)) >> 31) & 1
        return execute
    if opcode == "sub":
        def execute(m):
            a = read_dst(m)
            b = read_src(m)
            r = (a - b) & _MASK
            write_dst(m, r)
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.cf = 1 if a < b else 0
            m.of = (((a ^ b) & (a ^ r)) >> 31) & 1
        return execute
    if opcode in ("and", "or", "xor"):
        combine = {
            "and": operator.and_, "or": operator.or_, "xor": operator.xor,
        }[opcode]
        def execute(m):
            r = combine(read_dst(m), read_src(m)) & _MASK
            write_dst(m, r)
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.cf = 0
            m.of = 0
        return execute
    if opcode == "imul":
        def execute(m):
            product = _signed(read_dst(m)) * _signed(read_src(m))
            r = product & _MASK
            write_dst(m, r)
            overflow = 0 if -0x80000000 <= product <= 0x7FFFFFFF else 1
            m.cf = overflow
            m.of = overflow
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
        return execute
    if opcode == "shl":
        def execute(m):
            a = read_dst(m)
            count = read_src(m) & 31
            r = (a << count) & _MASK
            write_dst(m, r)
            if count:
                m.cf = (a >> (32 - count)) & 1
                m.zf = 1 if r == 0 else 0
                m.sf = (r >> 31) & 1
                m.of = 0
        return execute
    if opcode == "shr":
        def execute(m):
            a = read_dst(m)
            count = read_src(m) & 31
            r = a >> count
            write_dst(m, r)
            if count:
                m.cf = (a >> (count - 1)) & 1
                m.zf = 1 if r == 0 else 0
                m.sf = (r >> 31) & 1
                m.of = 0
        return execute
    if opcode == "sar":
        def execute(m):
            a = _signed(read_dst(m))
            count = read_src(m) & 31
            r = (a >> count) & _MASK
            write_dst(m, r)
            if count:
                m.cf = (a >> (count - 1)) & 1
                m.zf = 1 if r == 0 else 0
                m.sf = (r >> 31) & 1
                m.of = 0
        return execute
    raise ExecutionError("unhandled ALU opcode %r" % opcode)


def _compile_unary(opcode, instr):
    (operand,) = instr.operands
    read = _reader(operand)
    write = _writer(operand)
    if opcode == "inc":
        def execute(m):
            r = (read(m) + 1) & _MASK
            write(m, r)
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.of = 1 if r == 0x80000000 else 0
        return execute
    if opcode == "dec":
        def execute(m):
            r = (read(m) - 1) & _MASK
            write(m, r)
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.of = 1 if r == 0x7FFFFFFF else 0
        return execute
    if opcode == "neg":
        def execute(m):
            a = read(m)
            r = (-a) & _MASK
            write(m, r)
            m.cf = 1 if a != 0 else 0
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.of = 1 if r == 0x80000000 else 0
        return execute
    if opcode == "not":
        def execute(m):
            write(m, (~read(m)) & _MASK)
        return execute
    raise ExecutionError("unhandled unary opcode %r" % opcode)


def _compile_plain(instr):
    """Compile a non-control, non-REP instruction to an executor closure."""
    opcode = instr.opcode
    kind = instr.kind
    if kind == "alu":
        return _compile_alu(opcode, instr)
    if kind == "unary":
        return _compile_unary(opcode, instr)
    if kind == "mov":
        dst, src = instr.operands
        read_src = _reader(src)
        write_dst = _writer(dst)
        def execute(m):
            write_dst(m, read_src(m) & _MASK)
        return execute
    if kind == "lea":
        dst, src = instr.operands
        if not isinstance(src, Mem):
            raise ExecutionError("lea needs a memory operand")
        address = _address(src)
        write_dst = _writer(dst)
        def execute(m):
            write_dst(m, address(m))
        return execute
    if kind == "cmp":
        a_read = _reader(instr.operands[0])
        b_read = _reader(instr.operands[1])
        def execute(m):
            a = a_read(m)
            b = b_read(m)
            r = (a - b) & _MASK
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.cf = 1 if a < b else 0
            m.of = (((a ^ b) & (a ^ r)) >> 31) & 1
        return execute
    if kind == "test":
        a_read = _reader(instr.operands[0])
        b_read = _reader(instr.operands[1])
        def execute(m):
            r = a_read(m) & b_read(m)
            m.zf = 1 if r == 0 else 0
            m.sf = (r >> 31) & 1
            m.cf = 0
            m.of = 0
        return execute
    if kind == "push":
        read = _reader(instr.operands[0])
        def execute(m):
            esp = (m.regs[ESP] - 4) & _MASK
            m.regs[ESP] = esp
            m.mem[esp] = read(m) & _MASK
        return execute
    if kind == "pop":
        write = _writer(instr.operands[0])
        def execute(m):
            esp = m.regs[ESP]
            write(m, m.mem.get(esp, 0))
            m.regs[ESP] = (esp + 4) & _MASK
        return execute
    if opcode == "nop":
        def execute(m):
            pass
        return execute
    raise ExecutionError("unhandled opcode %r" % opcode)


_CONDITIONS = {
    "z": lambda m: m.zf,
    "nz": lambda m: not m.zf,
    "l": lambda m: m.sf != m.of,
    "ge": lambda m: m.sf == m.of,
    "le": lambda m: m.zf or m.sf != m.of,
    "g": lambda m: not m.zf and m.sf == m.of,
    "b": lambda m: m.cf,
    "ae": lambda m: not m.cf,
    "be": lambda m: m.cf or m.zf,
    "a": lambda m: not m.cf and not m.zf,
    "s": lambda m: m.sf,
    "ns": lambda m: not m.sf,
}


def _compile_rep(instr):
    """Compile a REP string op; the closure returns the iteration count."""
    if instr.opcode == "rep_movsd":
        def execute(m):
            count = m.regs[ECX]
            mem = m.mem
            esi = m.regs[ESI]
            edi = m.regs[EDI]
            for _ in range(count):
                mem[edi & _MASK] = mem.get(esi & _MASK, 0)
                esi += 4
                edi += 4
            m.regs[ESI] = esi & _MASK
            m.regs[EDI] = edi & _MASK
            m.regs[ECX] = 0
            return count
        return execute
    if instr.opcode == "rep_stosd":
        def execute(m):
            count = m.regs[ECX]
            mem = m.mem
            edi = m.regs[EDI]
            value = m.regs[EAX]
            for _ in range(count):
                mem[edi & _MASK] = value
                edi += 4
            m.regs[EDI] = edi & _MASK
            m.regs[ECX] = 0
            return count
        return execute
    raise ExecutionError("unhandled REP opcode %r" % instr.opcode)


def _compile_cpuid():
    """``cpuid``: deterministic vendor answer; exists to split Pin blocks."""
    def execute(m):
        m.regs[EAX] = 0x0000_0001
        m.regs[EBX] = 0x53583836  # "SX86"
        m.regs[ECX] = 0
        m.regs[EDX] = 0
    return execute


def _decode_shape(instr):
    """``(category, closure, direct)`` for one distinct instruction;
    ``direct`` marks a transfer whose target is ``instr.target``."""
    kind = instr.kind
    if kind == "jcc":
        return _COND, _CONDITIONS[instr.condition], True
    if kind == "jmp" or kind == "call":
        if instr.is_indirect:
            category = _IND_JMP if kind == "jmp" else _IND_CALL
            return category, _reader(instr.operands[0]), False
        return (_JMP if kind == "jmp" else _CALL), None, True
    if kind == "ret":
        return _RET, None, False
    if kind == "rep":
        return _REP, _compile_rep(instr), False
    if instr.opcode == "cpuid":
        return _SPLIT, _compile_cpuid(), False
    if instr.opcode == "hlt":
        return _HLT, None, False
    return _PLAIN, _compile_plain(instr), False


class _Decoded:
    """A pre-compiled instruction ready for the dispatch loop."""

    __slots__ = ("category", "run", "instr", "target", "fallthrough")

    def __init__(self, category, run, instr, target=None):
        self.category = category
        self.run = run
        self.instr = instr
        self.target = target
        self.fallthrough = instr.addr + instr.length


class ExecutionResult:
    """Summary of one executor run."""

    __slots__ = ("instrs_dbt", "instrs_pin", "edges", "halted", "final_pc")

    def __init__(self, instrs_dbt, instrs_pin, edges, halted, final_pc):
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin
        self.edges = edges
        self.halted = halted
        self.final_pc = final_pc

    def __repr__(self):
        return "<ExecutionResult dbt=%d pin=%d edges=%d halted=%s>" % (
            self.instrs_dbt,
            self.instrs_pin,
            self.edges,
            self.halted,
        )


class Executor:
    """Runs a program, emitting the dynamic edge stream.

    Parameters
    ----------
    program:
        The assembled program.
    machine:
        Optional pre-configured machine; a fresh one is created otherwise
        and the program's data image is applied either way.
    max_instructions:
        Budget in StarDBT-counted instructions; exceeding it raises
        :class:`~repro.errors.InstructionLimitExceeded`.
    obs:
        Optional :class:`~repro.obs.Observability`.  The dispatch loop
        itself is never instrumented; run totals are flushed into
        ``exec.*`` counters and the ``exec.run`` phase timer at run
        boundaries, so observation costs nothing per instruction.
    """

    def __init__(self, program, machine=None,
                 max_instructions=DEFAULT_MAX_INSTRUCTIONS, obs=None):
        self.program = program
        self.machine = machine if machine is not None else Machine()
        self.machine.apply_image(program)
        self.max_instructions = max_instructions
        self.obs = obs
        self._decoded = self._decode_all(program)

    @staticmethod
    def _decode_all(program):
        """Decode every instruction, translating each distinct one once.

        Instructions with equal ``(opcode, operands)`` share one
        ``(category, closure)`` pair; only the per-address fields
        (``instr``, ``target``, ``fallthrough``) live on each entry.
        """
        shapes = {}
        decoded = {}
        for instr in program.instructions:
            key = (instr.opcode, instr.operands)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = _decode_shape(instr)
            category, run, direct = shape
            decoded[instr.addr] = _Decoded(
                category, run, instr, instr.target if direct else None)
        return decoded

    def run(self, on_event=None):
        """Execute from the program entry until ``hlt`` or budget exhaustion.

        ``on_event`` is called with every :class:`EdgeEvent`; pass ``None``
        to run silently (native-execution baseline).
        """
        obs = self.obs
        if obs is None:
            return self._run(on_event)
        with obs.metrics.timer("exec.run"):
            result = self._run(on_event)
        metrics = obs.metrics
        metrics.counter("exec.runs").inc()
        metrics.counter("exec.instructions_dbt").inc(result.instrs_dbt)
        metrics.counter("exec.instructions_pin").inc(result.instrs_pin)
        metrics.counter("exec.edges").inc(result.edges)
        return result

    def _run(self, on_event):
        machine = self.machine
        decoded = self._decoded
        budget = self.max_instructions
        pc = self.program.entry

        total_dbt = 0
        total_pin = 0
        span_dbt = 0  # instructions since the previous event, inclusive
        span_pin = 0
        edges = 0
        halted = False

        while True:
            entry = decoded.get(pc)
            if entry is None:
                raise ExecutionError("control reached non-code address %#x" % pc)
            category = entry.category

            if category == _PLAIN:
                entry.run(machine)
                span_dbt += 1
                span_pin += 1
                pc = entry.fallthrough
                continue

            if category == _COND:
                span_dbt += 1
                span_pin += 1
                taken = bool(entry.run(machine))
                target = entry.target if taken else entry.fallthrough
                if on_event is not None:
                    on_event(
                        EdgeEvent(entry.instr.addr, target, taken, EDGE_COND,
                                  span_dbt, span_pin)
                    )
                edges += 1
                total_dbt += span_dbt
                total_pin += span_pin
                if total_dbt > budget:
                    raise InstructionLimitExceeded(
                        "exceeded %d instructions" % budget
                    )
                span_dbt = 0
                span_pin = 0
                pc = target
                continue

            span_dbt += 1
            span_pin += 1

            if category == _JMP or category == _CALL:
                target = entry.target
                if category == _CALL:
                    esp = (machine.regs[ESP] - 4) & _MASK
                    machine.regs[ESP] = esp
                    machine.mem[esp] = entry.fallthrough
                    kind = EDGE_CALL
                else:
                    kind = EDGE_JMP
                taken = True
            elif category == _RET:
                esp = machine.regs[ESP]
                target = machine.mem.get(esp, 0)
                machine.regs[ESP] = (esp + 4) & _MASK
                kind = EDGE_RET
                taken = True
            elif category == _IND_JMP:
                target = entry.run(machine) & _MASK
                kind = EDGE_IND_JMP
                taken = True
            elif category == _IND_CALL:
                target = entry.run(machine) & _MASK
                esp = (machine.regs[ESP] - 4) & _MASK
                machine.regs[ESP] = esp
                machine.mem[esp] = entry.fallthrough
                kind = EDGE_IND_CALL
                taken = True
            elif category == _REP:
                iterations = entry.run(machine)
                span_pin += max(iterations, 1) - 1  # Pin counts each iteration
                target = entry.fallthrough
                kind = EDGE_SPLIT
                taken = False
            elif category == _SPLIT:
                entry.run(machine)
                target = entry.fallthrough
                kind = EDGE_SPLIT
                taken = False
            else:  # _HLT
                halted = True
                target = entry.instr.addr
                kind = EDGE_JMP
                taken = False

            if halted:
                total_dbt += span_dbt
                total_pin += span_pin
                return ExecutionResult(total_dbt, total_pin, edges, True, pc)

            if on_event is not None:
                on_event(
                    EdgeEvent(entry.instr.addr, target, taken, kind,
                              span_dbt, span_pin)
                )
            edges += 1
            total_dbt += span_dbt
            total_pin += span_pin
            if total_dbt > budget:
                raise InstructionLimitExceeded("exceeded %d instructions" % budget)
            span_dbt = 0
            span_pin = 0
            pc = target


def run_program(program, on_event=None, machine=None,
                max_instructions=DEFAULT_MAX_INSTRUCTIONS, obs=None):
    """One-shot convenience: build an :class:`Executor` and run it."""
    executor = Executor(program, machine=machine,
                        max_instructions=max_instructions, obs=obs)
    return executor.run(on_event)
