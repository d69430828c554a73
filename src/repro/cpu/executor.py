"""The SX86 interpreter core: a lazy basic-block translator.

The first time execution reaches a PC, the executor translates the
straight-line run starting there, up to and including the first control
transfer, REP op, ``cpuid`` or ``hlt``, and caches the translation by
its start PC.  The dispatch loop then runs one block per iteration: the
block's body closures in order, then its terminator, which ends an
event: a control transfer or a block splitter.  The loop records each
event itself into the lanes of an
:class:`~repro.cpu.stream.ExecutionStream` (one row and one flag byte
per StarDBT-flavour block, a side row per merged splitter) and builds
an :class:`~repro.cpu.events.EdgeEvent` only for an ``on_event``
callback.  Both instruction spans grow by the block's size in bulk, and
the budget is checked at events only.  A PC that is not an instruction
raises :class:`~repro.errors.ExecutionError` when control reaches it; so
does an instruction whose operands cannot execute (``lea`` of a
register, a write to an immediate), when its block is first translated.

Each body instruction becomes one closure, shared by every instruction
with equal ``(opcode, operands, live flags)`` in one executor.  The
closure comes from a source template keyed by ``(opcode, operand kinds,
live flags)``, generated and compiled once per process into the
module-level :data:`_TEMPLATES` cache.  The template set is bounded by
the ISA, not by the programs run.  Generation is pure and idempotent and
the cache is only ever extended with ``dict.setdefault``, so threads
that race on a key at worst compile the same template twice and then
share one.

No plain SX86 instruction reads a flag, so only the last writer of each
flag in a block stores it (every flag is live at the block end).  A
shift by a non-immediate count writes flags only when the count is
non-zero, so it never kills an earlier writer; ``inc``/``dec`` keep CF.

Flag semantics follow IA-32 for the subset the ISA defines: ``cmp``/``sub``
set CF on unsigned borrow and OF on signed overflow; logical ops clear
CF/OF; ``inc``/``dec`` preserve CF.  See :data:`_SEMANTICS`.
"""

from array import array

from repro.errors import ExecutionError, InstructionLimitExceeded
from repro.cpu.events import (
    EDGE_CALL,
    EDGE_COND,
    EDGE_IND_CALL,
    EDGE_IND_JMP,
    EDGE_JMP,
    EDGE_RET,
    EDGE_SPLIT,
    END_OF_RUN,
    FLAG_FINAL,
    FLAG_FIRST,
    FLAG_SPLITS,
    FLAG_TAKEN,
    KIND_CODES,
    KIND_MASK,
    KINDS,
    EdgeEvent,
)
from repro.cpu.machine import Machine
from repro.isa.instructions import OPCODES
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import EAX, EBX, ECX, EDI, EDX, ESI, ESP

_MASK = 0xFFFFFFFF

# Block terminator categories for the dispatch loop (``_PLAIN``: the
# block runs off the end of the code).
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

# Flag bytes of the block-ending events (see ``repro.cpu.events``).
_COND_CODE = KIND_CODES[EDGE_COND]
_COND_TAKEN = _COND_CODE | FLAG_TAKEN
_JMP_CODE = KIND_CODES[EDGE_JMP] | FLAG_TAKEN
_CALL_CODE = KIND_CODES[EDGE_CALL] | FLAG_TAKEN
_IND_CALL_CODE = KIND_CODES[EDGE_IND_CALL] | FLAG_TAKEN
_RET_CODE = KIND_CODES[EDGE_RET] | FLAG_TAKEN
_IND_JMP_CODE = KIND_CODES[EDGE_IND_JMP] | FLAG_TAKEN

#: Default per-run instruction budget (StarDBT counting).
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

_ZF, _SF, _CF, _OF = 1, 2, 4, 8
_ALL_FLAGS = _ZF | _SF | _CF | _OF

#: Flags each straight-line opcode always writes; ``None`` for shifts,
#: which write all four only when the count is non-zero.  Opcodes not
#: listed end a block.
_WRITES = dict.fromkeys(
    ("add", "sub", "and", "or", "xor", "imul", "cmp", "test", "neg"),
    _ALL_FLAGS)
_WRITES.update(dict.fromkeys(("shl", "shr", "sar"), None))
_WRITES.update(inc=_ZF | _SF | _OF, dec=_ZF | _SF | _OF)
_WRITES.update(dict.fromkeys(("not", "mov", "lea", "push", "pop", "nop"), 0))

_SIGNED_A = "a = a - 0x100000000 if a & 0x80000000 else a"

#: ALU, unary, ``cmp`` and ``test`` semantics: statements computing ``r``
#: from ``a`` (the first operand) and ``b`` (the second), then the CF
#: and OF expressions (``None``: not written).  ZF and SF follow ``r``.
_SEMANTICS = {
    "add": ("t = a + b\nr = t & 0xFFFFFFFF", "1 if t > 0xFFFFFFFF else 0",
            "((~(a ^ b) & (a ^ r)) >> 31) & 1"),
    "sub": ("r = (a - b) & 0xFFFFFFFF", "1 if a < b else 0",
            "(((a ^ b) & (a ^ r)) >> 31) & 1"),
    "and": ("r = (a & b) & 0xFFFFFFFF", "0", "0"),
    "or": ("r = (a | b) & 0xFFFFFFFF", "0", "0"),
    "xor": ("r = (a ^ b) & 0xFFFFFFFF", "0", "0"),
    "test": ("r = a & b", "0", "0"),
    "imul": (_SIGNED_A + "\nb = b - 0x100000000 if b & 0x80000000 else b"
             "\np = a * b\nr = p & 0xFFFFFFFF",
             "0 if -0x80000000 <= p <= 0x7FFFFFFF else 1",
             "0 if -0x80000000 <= p <= 0x7FFFFFFF else 1"),
    "shl": ("c = b & 31\nr = (a << c) & 0xFFFFFFFF", "(a >> (32 - c)) & 1",
            "0"),
    "shr": ("c = b & 31\nr = a >> c", "(a >> (c - 1)) & 1", "0"),
    "sar": (_SIGNED_A + "\nc = b & 31\nr = (a >> c) & 0xFFFFFFFF",
            "(a >> (c - 1)) & 1", "0"),
    "inc": ("r = (a + 1) & 0xFFFFFFFF", None, "1 if r == 0x80000000 else 0"),
    "dec": ("r = (a - 1) & 0xFFFFFFFF", None, "1 if r == 0x7FFFFFFF else 0"),
    "neg": ("r = (-a) & 0xFFFFFFFF", "1 if a != 0 else 0",
            "1 if r == 0x80000000 else 0"),
    "not": ("r = (~a) & 0xFFFFFFFF", None, None),
}
_SEMANTICS["cmp"] = _SEMANTICS["sub"]

#: ``(opcode, operand kinds, live flags)`` -> compiled closure factory.
_TEMPLATES = {}


def _operand(operand):
    """``(kind, factory arguments)`` of one operand.  Kinds: ``r``, ``i``,
    and ``m`` plus ``b``/``x`` for a present base/index register."""
    if isinstance(operand, Reg):
        return "r", (operand.index,)
    if isinstance(operand, Imm):
        return "i", (operand.value & _MASK,)
    if isinstance(operand, Mem):
        kind, args = "m", ()
        if operand.base is not None:
            kind, args = "mb", (operand.base,)
        if operand.index is not None:
            kind, args = kind + "x", args + (operand.index, operand.scale)
        return kind, args + (operand.disp if args else operand.disp & _MASK,)
    raise ExecutionError("unreadable operand %r" % (operand,))


def _operand_code(kind, prefix):
    """``[parameter names, value expression, address expression, target
    expression]`` of one operand kind.  The address is ``None`` for
    registers and immediates; the target is ``None`` for immediates."""
    if kind == "r":
        return [[prefix], "regs[%s]" % prefix, None, "regs[%s]" % prefix]
    if kind == "i":
        return [[prefix], prefix, None, None]
    names, terms = [], []
    if "b" in kind:
        names.append(prefix + "b")
        terms.append("regs[%sb]" % prefix)
    if "x" in kind:
        names += [prefix + "x", prefix + "k"]
        terms.append("regs[%sx] * %sk" % (prefix, prefix))
    names.append(prefix + "d")
    address = prefix + "d"
    if terms:
        address = "(%s + %s) & 0xFFFFFFFF" % (" + ".join(terms), address)
    return [names, "mem.get(%s, 0)" % address, address, "mem[%s]" % address]


def _store(code, value):
    """The statement writing ``value`` to an operand."""
    if code[3] is None:
        raise ExecutionError("cannot write an immediate operand")
    return "%s = %s" % (code[3], value)


def _generate(opcode, kinds, live):
    """Generate and compile the closure factory of one template key."""
    codes = [_operand_code(kind, prefix) for kind, prefix in zip(kinds, "ds")]
    kind = OPCODES[opcode].kind
    lines = []
    if kind in ("jmp", "call"):  # the target of an indirect transfer
        lines.append("return " + codes[0][1])
    elif kind == "push":
        lines += ["esp = (regs[%d] - 4) & 0xFFFFFFFF" % ESP,
                  "regs[%d] = esp" % ESP,
                  "mem[esp] = %s & 0xFFFFFFFF" % codes[0][1]]
    elif kind == "pop":
        lines += ["esp = regs[%d]" % ESP, _store(codes[0], "mem.get(esp, 0)"),
                  "regs[%d] = (esp + 4) & 0xFFFFFFFF" % ESP]
    elif kind == "lea":
        if codes[1][2] is None:
            raise ExecutionError("lea needs a memory operand")
        lines.append(_store(codes[0], codes[1][2]))
    elif kind == "mov":
        lines.append(_store(codes[0], codes[1][1] + " & 0xFFFFFFFF"))
    else:
        compute, cf, of = _SEMANTICS[opcode]
        writes = kind not in ("cmp", "test")
        if writes and codes[0][2] is not None:  # read-modify-write memory
            lines += ["addr = " + codes[0][2], "a = mem.get(addr, 0)"]
            codes[0][3] = "mem[addr]"
        else:
            lines.append("a = " + codes[0][1])
        lines += ["b = " + code[1] for code in codes[1:]]
        lines += compute.split("\n")
        if writes:
            lines.append(_store(codes[0], "r"))
        flags = ["m.%s = %s" % (name, expression) for bit, name, expression
                 in ((_ZF, "zf", "1 if r == 0 else 0"),
                     (_SF, "sf", "(r >> 31) & 1"), (_CF, "cf", cf),
                     (_OF, "of", of))
                 if live & bit and expression is not None]
        if flags and _WRITES[opcode] is None and kinds[1] != "i":
            flags = ["if c:"] + ["    " + line for line in flags]
        lines += flags
    body = "\n".join(lines)
    prologue = [name + " = m." + name for name in ("regs", "mem")
                if name in body]
    source = "def make(%s):\n    def run(m):\n%s\n    return run\n" % (
        ", ".join(name for code in codes for name in code[0]),
        "".join("        %s\n" % line for line in prologue + lines))
    namespace = {}
    exec(compile(source, "<sx86 %s %s>" % (opcode, kinds), "exec"), namespace)
    return namespace["make"]


def _instantiate(opcode, operands, live):
    """The closure of one instruction whose flags ``live`` are read
    later; ``None`` when executing it changes nothing."""
    if opcode == "nop" or (not live and opcode in ("cmp", "test")):
        return None
    kinds, args = (), ()
    for operand in operands:
        kind, more = _operand(operand)
        kinds, args = kinds + (kind,), args + more
    key = (opcode, kinds, live)
    factory = _TEMPLATES.get(key)
    if factory is None:
        factory = _TEMPLATES.setdefault(key, _generate(opcode, kinds, live))
    return factory(*args)


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
    """``(category, closure, direct)`` of a block terminator; ``direct``
    marks a transfer whose target is ``instr.target``."""
    kind = instr.kind
    if kind == "jcc":
        return _COND, _CONDITIONS[instr.condition], True
    if kind == "jmp" or kind == "call":
        if instr.is_indirect:
            category = _IND_JMP if kind == "jmp" else _IND_CALL
            return category, _instantiate(kind, instr.operands, 0), False
        return (_JMP if kind == "jmp" else _CALL), None, True
    if kind == "ret":
        return _RET, None, False
    if kind == "rep":
        return _REP, _compile_rep(instr), False
    if instr.opcode == "cpuid":
        return _SPLIT, _compile_cpuid(), False
    if instr.opcode == "hlt":
        return _HLT, None, False
    raise ExecutionError("unhandled opcode %r" % instr.opcode)


def _lanes(rows, flags, splits):
    """The ``array`` lanes of a run from the lists it appended to."""
    return array("q", rows), array("B", bytes(flags)), array("q", splits)


class ExecutionResult:
    """Summary of one executor run, with the run recorded as lanes.

    ``transitions``, ``flags`` and ``splits`` are the lanes of
    :class:`~repro.cpu.stream.ExecutionStream` (see that module), in
    ``array`` form; ``translated`` counts the distinct PCs that ended an
    event.  A run that exceeded its budget is recorded up to and
    including the event that crossed it, without a terminal row.
    """

    __slots__ = ("instrs_dbt", "instrs_pin", "edges", "halted", "final_pc",
                 "transitions", "flags", "splits", "translated")

    def __init__(self, instrs_dbt, instrs_pin, edges, halted, final_pc,
                 lanes, translated):
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin
        self.edges = edges
        self.halted = halted
        self.final_pc = final_pc
        self.transitions, self.flags, self.splits = lanes
        self.translated = translated

    def __repr__(self):
        return "<ExecutionResult dbt=%d pin=%d edges=%d halted=%s>" % (
            self.instrs_dbt,
            self.instrs_pin,
            self.edges,
            self.halted,
        )


class Executor:
    """Runs a program, recording its dynamic block stream as lanes.

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
        itself is never instrumented; run totals (up to the event that
        crossed the budget, for a run that exceeded it) are flushed into
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
        #: The :class:`ExecutionResult` of the last run, set before
        #: :meth:`run` returns or raises.
        self.result = None
        self._blocks = {}    # start PC -> translated block
        self._closures = {}  # (opcode, operands, live flags) -> closure
        # (opcode, id(operands), live flags) -> (operands, closure): an
        # instruction's operand tuple is shared by every repeat of its
        # text, so most lookups never hash the operands.
        self._closures_by_id = {}

    def _translate(self, pc):
        """The block starting at ``pc``: ``(body closures, size,
        category, terminator closure, terminator PC, direct target,
        fall-through)``."""
        instruction_at = self.program.instruction_at
        try:
            instr = instruction_at(pc)
        except ExecutionError:
            raise ExecutionError(
                "control reached non-code address %#x" % pc) from None
        plain = []
        while instr.opcode in _WRITES:
            plain.append(instr)
            pc = instr.addr + instr.length
            try:
                instr = instruction_at(pc)
            except ExecutionError:  # off the code: the next dispatch raises
                return (self._body(plain), len(plain), _PLAIN, None, None,
                        None, pc)
        category, run, direct = _decode_shape(instr)
        return (self._body(plain), len(plain) + 1, category, run, instr.addr,
                instr.target if direct else None, instr.addr + instr.length)

    def _body(self, plain):
        """Closures of a block's straight-line instructions, dropping the
        flag writes a later instruction of the block overwrites."""
        closures = self._closures
        by_id = self._closures_by_id
        body = []
        live = _ALL_FLAGS
        for instr in reversed(plain):
            opcode = instr.opcode
            operands = instr.operands
            kills = writes = _WRITES[opcode]
            if writes is None:  # a shift
                count = operands[1]
                if isinstance(count, Imm):
                    kills = writes = _ALL_FLAGS if count.value & 31 else 0
                else:
                    kills, writes = 0, _ALL_FLAGS
            id_key = (opcode, id(operands), writes & live)
            found = by_id.get(id_key)
            if found is None:
                key = (opcode, operands, writes & live)
                run = closures.get(key, key)
                if run is key:
                    run = closures[key] = _instantiate(*key)
                by_id[id_key] = operands, run
            else:
                run = found[1]
            if run is not None:
                body.append(run)
            live &= ~kills
        body.reverse()
        return tuple(body)

    def run(self, on_event=None):
        """Execute from the program entry until ``hlt`` or budget exhaustion.

        Returns the :class:`ExecutionResult`, lanes included.
        ``on_event``, when given, is also called with every
        :class:`EdgeEvent`.  A run that exceeds the budget delivers the
        event that crossed it, then raises
        :class:`~repro.errors.InstructionLimitExceeded`; :attr:`result`
        still holds its totals and lanes.
        """
        obs = self.obs
        if obs is None:
            result = self._run(on_event)
        else:
            with obs.metrics.timer("exec.run"):
                result = self._run(on_event)
            metrics = obs.metrics
            metrics.counter("exec.runs").inc()
            metrics.counter("exec.instructions_dbt").inc(result.instrs_dbt)
            metrics.counter("exec.instructions_pin").inc(result.instrs_pin)
            metrics.counter("exec.edges").inc(result.edges)
        self.result = result
        if not result.halted:
            raise InstructionLimitExceeded(
                "exceeded %d instructions" % self.max_instructions)
        return result

    def _run(self, on_event):
        """The dispatch loop; returns the totals and lanes, not halted
        when the budget was exceeded."""
        machine = self.machine
        regs = machine.regs
        mem = machine.mem
        blocks = self._blocks
        budget = self.max_instructions
        pc = self.program.entry

        # The lanes grow as lists (appending to an ``array`` costs
        # several times more) and become arrays when the run ends.
        rows = []
        flags = []
        splits = []
        row = rows.extend
        flag = flags.append
        seen = set()  # PCs that ended an event
        merged_dbt = 0  # split events merged into the next row
        merged_pin = 0

        total_dbt = 0
        total_pin = 0
        span_dbt = 0  # instructions since the previous event, inclusive
        span_pin = 0
        edges = 0

        while True:
            block = blocks.get(pc)
            if block is None:
                block = blocks[pc] = self._translate(pc)
            body, size, category, run, end, target, fallthrough = block
            for execute in body:
                execute(machine)
            span_dbt += size
            span_pin += size

            if category == _COND:
                if run(machine):
                    code = _COND_TAKEN
                else:
                    code = _COND_CODE
                    target = fallthrough
            elif category == _JMP:
                code = _JMP_CODE
            elif category == _CALL or category == _IND_CALL:
                if category == _IND_CALL:
                    target = run(machine) & _MASK
                    code = _IND_CALL_CODE
                else:
                    code = _CALL_CODE
                esp = (regs[ESP] - 4) & _MASK
                regs[ESP] = esp
                mem[esp] = fallthrough
            elif category == _RET:
                esp = regs[ESP]
                target = mem.get(esp, 0)
                regs[ESP] = (esp + 4) & _MASK
                code = _RET_CODE
            elif category == _IND_JMP:
                target = run(machine) & _MASK
                code = _IND_JMP_CODE
            elif category == _REP or category == _SPLIT:
                iterations = run(machine)
                if category == _REP:  # Pin counts each iteration
                    span_pin += max(iterations, 1) - 1
                target = fallthrough
                code = None
            elif category == _HLT:
                # The terminal row: merged splits plus the instructions
                # after the last event, up to and including ``hlt``.
                row((END_OF_RUN, span_dbt + merged_dbt,
                     span_pin + merged_pin))
                flag((FLAG_FINAL | FLAG_SPLITS) if merged_dbt else FLAG_FINAL)
                return ExecutionResult(total_dbt + span_dbt,
                                       total_pin + span_pin, edges, True, end,
                                       _lanes(rows, flags, splits), len(seen))
            else:  # _PLAIN
                pc = fallthrough
                continue

            if code is None:  # a split, merged into the next row
                first = end not in seen
                if first:
                    seen.add(end)
                splits.extend((len(flags), span_dbt, span_pin, first))
                merged_dbt += span_dbt
                merged_pin += span_pin
                if on_event is not None:
                    on_event(EdgeEvent(end, target, False, EDGE_SPLIT,
                                       span_dbt, span_pin))
            else:
                if end not in seen:
                    seen.add(end)
                    code |= FLAG_FIRST
                if merged_dbt:
                    row((target, span_dbt + merged_dbt,
                         span_pin + merged_pin))
                    code |= FLAG_SPLITS
                    merged_dbt = 0
                    merged_pin = 0
                else:
                    row((target, span_dbt, span_pin))
                flag(code)
                if on_event is not None:
                    on_event(EdgeEvent(end, target, bool(code & FLAG_TAKEN),
                                       KINDS[code & KIND_MASK], span_dbt,
                                       span_pin))
            edges += 1
            total_dbt += span_dbt
            total_pin += span_pin
            if total_dbt > budget:
                return ExecutionResult(total_dbt, total_pin, edges, False,
                                       target, _lanes(rows, flags, splits),
                                       len(seen))
            span_dbt = 0
            span_pin = 0
            pc = target


def run_program(program, on_event=None, machine=None,
                max_instructions=DEFAULT_MAX_INSTRUCTIONS, obs=None):
    """One-shot convenience: build an :class:`Executor` and run it."""
    executor = Executor(program, machine=machine,
                        max_instructions=max_instructions, obs=obs)
    return executor.run(on_event)
