"""Property-based tests: the interpreter against a Python reference model."""

from hypothesis import given, settings, strategies as st

from repro.cpu import Machine, run_program
from repro.isa import assemble

_MASK = 0xFFFFFFFF

small_ints = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
uints = st.integers(min_value=0, max_value=_MASK)


def run_snippet(body):
    machine = Machine()
    run_program(assemble("main:\n%s\n    hlt" % body), machine=machine)
    return machine


@given(a=small_ints, b=small_ints)
@settings(max_examples=60, deadline=None)
def test_add_matches_python(a, b):
    machine = run_snippet("    mov eax, %d\n    add eax, %d" % (a, b))
    assert machine.regs[0] == (a + b) & _MASK


@given(a=small_ints, b=small_ints)
@settings(max_examples=60, deadline=None)
def test_sub_matches_python(a, b):
    machine = run_snippet("    mov eax, %d\n    sub eax, %d" % (a, b))
    assert machine.regs[0] == (a - b) & _MASK
    assert machine.cf == (1 if (a & _MASK) < (b & _MASK) else 0)
    assert machine.zf == (1 if (a - b) & _MASK == 0 else 0)


@given(a=small_ints, b=small_ints)
@settings(max_examples=60, deadline=None)
def test_imul_matches_python(a, b):
    machine = run_snippet("    mov eax, %d\n    imul eax, %d" % (a, b))
    assert machine.regs[0] == (a * b) & _MASK


@given(a=small_ints, b=small_ints)
@settings(max_examples=60, deadline=None)
def test_logic_matches_python(a, b):
    machine = run_snippet(
        "    mov eax, %d\n    mov ebx, %d\n"
        "    mov ecx, eax\n    and ecx, ebx\n"
        "    mov edx, eax\n    or edx, ebx\n"
        "    xor eax, ebx" % (a, b)
    )
    assert machine.regs[2] == (a & b) & _MASK
    assert machine.regs[3] == (a | b) & _MASK
    assert machine.regs[0] == (a ^ b) & _MASK


@given(a=small_ints, count=st.integers(min_value=0, max_value=31))
@settings(max_examples=60, deadline=None)
def test_shifts_match_python(a, count):
    machine = run_snippet(
        "    mov eax, %d\n    mov ebx, eax\n    mov ecx, eax\n"
        "    shl eax, %d\n    shr ebx, %d\n    sar ecx, %d"
        % (a, count, count, count)
    )
    unsigned = a & _MASK
    signed = unsigned - 0x100000000 if unsigned & 0x80000000 else unsigned
    assert machine.regs[0] == (unsigned << count) & _MASK
    assert machine.regs[1] == unsigned >> count
    assert machine.regs[2] == (signed >> count) & _MASK


@given(a=small_ints, b=small_ints)
@settings(max_examples=60, deadline=None)
def test_signed_comparison_chain(a, b):
    machine = run_snippet(
        "    mov eax, %d\n    cmp eax, %d\n"
        "    jl less\n    mov ebx, 1\n    jmp done\n"
        "less:\n    mov ebx, 2\ndone:" % (a, b)
    )
    assert machine.regs[1] == (2 if a < b else 1)


@given(a=uints, b=uints)
@settings(max_examples=60, deadline=None)
def test_unsigned_comparison_chain(a, b):
    machine = run_snippet(
        "    mov eax, %d\n    cmp eax, %d\n"
        "    jb below\n    mov ebx, 1\n    jmp done\n"
        "below:\n    mov ebx, 2\ndone:" % (a, b)
    )
    assert machine.regs[1] == (2 if a < b else 1)


@given(count=st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_loop_trip_count(count):
    machine = run_snippet(
        "    mov ecx, %d\nloop:\n    add eax, 1\n    dec ecx\n    jnz loop"
        % count
    )
    assert machine.regs[0] == count


@given(values=st.lists(uints, min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_rep_movsd_copies_arbitrary_data(values):
    source = (
        "main:\n    mov ecx, %d\n    mov esi, src\n    mov edi, dst\n"
        "    rep movsd\n    hlt\n.data\nsrc: .word %s\ndst: .zero %d"
        % (len(values), ", ".join(str(v) for v in values), len(values))
    )
    program = assemble(source)
    machine = Machine()
    run_program(program, machine=machine)
    dst = program.label_addr("dst")
    assert [machine.load(dst + 4 * i) for i in range(len(values))] == list(values)


@given(
    pushes=st.lists(uints, min_size=1, max_size=10),
)
@settings(max_examples=30, deadline=None)
def test_stack_lifo_order(pushes):
    body = "\n".join("    mov eax, %d\n    push eax" % v for v in pushes)
    body += "\n" + "\n".join("    pop ebx" for _ in pushes)
    machine = run_snippet(body)
    assert machine.regs[1] == pushes[0]


# ---------------------------------------------------------------------
# straight-line blocks against a per-instruction reference model
# ---------------------------------------------------------------------

_NAMES = ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp")
_ESP = 7
_CONDITIONS = ("z", "nz", "l", "le", "g", "ge", "b", "be", "a", "ae", "s",
               "ns")
#: Scratch words every example pre-fills, so memory reads hit data.
_DATA_BASE = 0x10000

operand_regs = st.integers(min_value=0, max_value=6)  # never esp itself
imms = st.integers(min_value=-(2 ** 31), max_value=_MASK)
mems = st.one_of(
    st.tuples(st.just("mem"), st.sampled_from((None, 5, 6, _ESP)), st.none(),
              st.just(1), st.integers(min_value=-64, max_value=64)),
    st.tuples(st.just("mem"), st.sampled_from((None, 5, 6)),
              st.integers(min_value=0, max_value=6),
              st.sampled_from((1, 2, 4, 8)),
              st.integers(min_value=-4096, max_value=4096)),
)
regs_ops = st.tuples(st.just("reg"), operand_regs)
imm_ops = st.tuples(st.just("imm"), imms)
writable = st.one_of(regs_ops, mems)
readable = st.one_of(regs_ops, imm_ops, mems)
instructions = st.one_of(
    st.tuples(st.sampled_from(("add", "sub", "and", "or", "xor", "imul",
                               "cmp", "test", "mov")),
              writable, readable),
    st.tuples(st.sampled_from(("shl", "shr", "sar")), writable,
              st.one_of(regs_ops,
                        st.tuples(st.just("imm"),
                                  st.integers(min_value=0, max_value=40)))),
    st.tuples(st.sampled_from(("inc", "dec", "neg", "not", "pop")), writable),
    st.tuples(st.just("push"), readable),
    st.tuples(st.just("lea"), regs_ops, mems),
)


def _render(operand):
    if operand[0] == "reg":
        return _NAMES[operand[1]]
    if operand[0] == "imm":
        return str(operand[1])
    _kind, base, index, scale, disp = operand
    parts = [] if base is None else [_NAMES[base]]
    if index is not None:
        parts.append("%s*%d" % (_NAMES[index], scale))
    text = "+".join(parts)
    if disp or not parts:
        text += ("%+d" % disp) if parts else str(disp)
    return "[%s]" % text


def signed(value):
    return value - (1 << 32) if value >> 31 else value


class _Model:
    """The reference: one instruction at a time, in plain Python."""

    def __init__(self, regs, flags, mem):
        self.regs = list(regs)
        self.zf, self.sf, self.cf, self.of = flags
        self.mem = dict(mem)

    def address(self, operand):
        _kind, base, index, scale, disp = operand
        total = disp
        if base is not None:
            total += self.regs[base]
        if index is not None:
            total += self.regs[index] * scale
        return total & _MASK

    def read(self, operand):
        if operand[0] == "reg":
            return self.regs[operand[1]]
        if operand[0] == "imm":
            return operand[1] & _MASK
        return self.mem.get(self.address(operand), 0)

    def write(self, operand, value):
        if operand[0] == "reg":
            self.regs[operand[1]] = value
        else:
            self.mem[self.address(operand)] = value

    def result_flags(self, r):
        self.zf = int(r == 0)
        self.sf = r >> 31

    def execute(self, opcode, *operands):
        if opcode == "push":
            self.regs[_ESP] = (self.regs[_ESP] - 4) & _MASK
            self.mem[self.regs[_ESP]] = self.read(operands[0])
            return
        if opcode == "pop":
            esp = self.regs[_ESP]
            self.write(operands[0], self.mem.get(esp, 0))
            self.regs[_ESP] = (esp + 4) & _MASK
            return
        if opcode == "lea":
            self.write(operands[0], self.address(operands[1]))
            return
        a = self.read(operands[0])
        b = self.read(operands[1]) if len(operands) > 1 else None
        if opcode == "mov":
            self.write(operands[0], b)
            return
        if opcode in ("add", "sub", "cmp"):
            exact = a + b if opcode == "add" else a - b
            r = exact & _MASK
            self.cf = int(exact != r)
            signed_b = signed(b) if opcode == "add" else -signed(b)
            self.of = int(signed(a) + signed_b != signed(r))
        elif opcode in ("and", "or", "xor", "test"):
            r = {"and": a & b, "test": a & b, "or": a | b,
                 "xor": a ^ b}[opcode]
            self.cf = self.of = 0
        elif opcode == "imul":
            product = signed(a) * signed(b)
            r = product & _MASK
            self.cf = self.of = int(product != signed(r))
        elif opcode in ("shl", "shr", "sar"):
            count = b & 31
            if opcode == "shl":
                r = (a << count) & _MASK
                carry = (a << count) >> 32
            elif opcode == "shr":
                r = a >> count
                carry = a >> (count - 1) if count else 0
            else:
                r = (signed(a) >> count) & _MASK
                carry = signed(a) >> (count - 1) if count else 0
            if count:
                self.cf = carry & 1
                self.of = 0
                self.result_flags(r)
            self.write(operands[0], r)
            return
        elif opcode in ("inc", "dec"):
            r = (a + (1 if opcode == "inc" else -1)) & _MASK
            self.of = int(signed(a) + (1 if opcode == "inc" else -1)
                          != signed(r))
            self.result_flags(r)
            self.write(operands[0], r)
            return  # CF is preserved
        elif opcode == "neg":
            r = -a & _MASK
            self.cf = int(a != 0)
            self.of = int(a == 0x80000000)
        else:  # not
            self.write(operands[0], ~a & _MASK)
            return
        self.result_flags(r)
        if opcode not in ("cmp", "test"):
            self.write(operands[0], r)

    def condition(self, cc):
        zf, sf, cf, of = self.zf, self.sf, self.cf, self.of
        return bool({
            "z": zf, "nz": not zf, "l": sf != of, "ge": sf == of,
            "le": zf or sf != of, "g": not zf and sf == of, "b": cf,
            "ae": not cf, "be": cf or zf, "a": not cf and not zf, "s": sf,
            "ns": not sf,
        }[cc])


@given(block=st.lists(instructions, min_size=1, max_size=12),
       regs=st.lists(uints, min_size=7, max_size=7),
       flags=st.tuples(*[st.integers(min_value=0, max_value=1)] * 4),
       data=st.lists(uints, min_size=16, max_size=16),
       cc=st.sampled_from(_CONDITIONS))
@settings(max_examples=300, deadline=None)
def test_straight_line_block_matches_reference_model(block, regs, flags,
                                                     data, cc):
    initial_regs = list(regs[:5]) + [_DATA_BASE, _DATA_BASE + 32,
                                     0x0BFFF000]
    initial_mem = {_DATA_BASE + 4 * i: value for i, value in enumerate(data)}
    source = "main:\n%s\n    j%s taken\n    hlt\ntaken:\n    hlt" % (
        "\n".join("    %s %s" % (instr[0], ", ".join(map(_render, instr[1:])))
                  for instr in block), cc)
    machine = Machine()
    machine.regs[:] = initial_regs
    machine.zf, machine.sf, machine.cf, machine.of = flags
    machine.mem.update(initial_mem)
    events = []
    result = run_program(assemble(source), on_event=events.append,
                         machine=machine)

    model = _Model(initial_regs, flags, initial_mem)
    for instr in block:
        model.execute(*instr)
    assert machine.regs == model.regs
    assert machine.mem == model.mem
    assert (machine.zf, machine.sf, machine.cf, machine.of) == \
        (model.zf, model.sf, model.cf, model.of)
    assert events[0].taken == model.condition(cc)
    assert result.instrs_dbt == len(block) + 2
