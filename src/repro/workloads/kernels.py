"""Parametric SX86 kernels, emitted as instruction records, not text.

Every kernel is a callable procedure (``<prefix>_entry`` ... ``ret``)
plus its data, as code and data records; the generator stitches kernels
into a program.  Kernels deliberately produce the control-flow shapes the trace
strategies react to:

- :func:`counted_nest` — FP-style perfectly nested counted loops with
  straight-line bodies (big blocks, single path: small MRET superblocks,
  TT stays inner-loop-only because unrolled inner loops overflow the path
  limit, CTT captures the whole nest via header link-backs).
- :func:`branchy_loop` — a hot loop whose body crosses ``diamonds``
  data-dependent if/else splits driven by an in-assembly LCG (many paths:
  MRET records one per hot side exit, TT/CTT duplicate tails).
- :func:`branchy_nest` — small-trip-count branchy inner loop inside a hot
  outer loop: TT unrolls the inner loop into its paths and explodes
  (the bzip2/gzip rows of Table 1).
- :func:`switch_loop` — indirect-jump dispatch over a jump table
  (interpreter-style; perlbmk/gap), defeating static successor knowledge.
- :func:`call_loop` — direct or indirect (table-selected) calls in a hot
  loop (eon's virtual dispatch).
- :func:`rep_copy_loop` — REP MOVSD in a loop; placed in *cold* code it
  reproduces the mesa coverage quirk of Section 4.1 (Pin counts REP
  iterations, StarDBT counts one instruction).
- :func:`straightline` — a run-once stretch of code (cold footprint).

The in-assembly PRNG is the classic LCG ``x = x*1103515245 + 12345``;
branch decisions test individual bits of ``eax``, so paths vary per
iteration but are fully deterministic for a given seed.
"""

from repro.isa.assembler import assemble
from repro.isa.operands import Imm, LabelMem, LabelRef, Reg
from repro.isa.registers import EAX, EBX, ECX, EDX, EDI, ESI

_EAX, _EBX, _ECX, _EDX, _ESI, _EDI = map(Reg, (EAX, EBX, ECX, EDX, ESI, EDI))


def _op(opcode, *operands):
    """A code record: ``opcode operands`` under no label."""
    return (None, opcode, operands)


def _label(name):
    """A code record: ``name`` alone, naming the next instruction."""
    return (name, None, None)


def _jump(opcode, label):
    return _op(opcode, LabelRef(label))


#: Shared records: every use of one appends the same tuple, so the
#: programs they build share their operand tuples by identity.
_RET = _op("ret")
_DEC_ECX = _op("dec", _ECX)
_PUSH_ECX = _op("push", _ECX)
_POP_ECX = _op("pop", _ECX)
_TEST_ECX = _op("test", _ECX, _ECX)
_MOV_EBX_EAX = _op("mov", _EBX, _EAX)
_AND_EBX_1 = _op("and", _EBX, Imm(1))
_SHR_EBX = tuple(_op("shr", _EBX, Imm(bit)) for bit in range(24))
_TEST_EDX = tuple(_op("test", _EDX, Imm(1 << bit)) for bit in range(8))
#: Advance the LCG in eax.
_LCG = (_op("imul", _EAX, Imm(1103515245)), _op("add", _EAX, Imm(12345)))

#: Simple ALU/memory instruction records for loop bodies; ``None``
#: marks the slots :func:`_body_ops` fills with loads and stores.
_BODY_OPS = (
    _op("add", _EDX, Imm(7)),
    _op("xor", _EDX, _ESI),
    _op("add", _ESI, Imm(13)),
    _op("imul", _EDX, Imm(3)),
    _op("sub", _ESI, Imm(5)),
    _op("and", _EDX, Imm(16777215)),
    _op("or", _ESI, Imm(1)),
    None,
    _op("add", _EDI, _EDX),
    None,
    _op("shl", _EDX, Imm(1)),
    _op("shr", _ESI, Imm(1)),
    _op("add", _EDX, _ESI),
    _op("not", _EDX),
    _op("neg", _ESI),
    None,
    _op("xor", _EDI, Imm(255)),
    None,
)


class KernelCode:
    """Generated kernel: code and data records (as
    :func:`~repro.isa.assembler.assemble_records` takes) and the entry
    label."""

    def __init__(self, prefix, code, data):
        self.prefix = prefix
        self.code = code
        self.data = data

    @property
    def entry_label(self):
        return "%s_entry" % self.prefix


def _body_ops(prefix):
    """:data:`_BODY_OPS` with the kernel's ``<prefix>_buf`` traffic."""
    ops = list(_BODY_OPS)
    buf = "%s_buf" % prefix
    ops[7] = _op("mov", _EDI, LabelMem(buf))
    ops[9] = _op("mov", LabelMem(buf, disp=4), _EDI)
    ops[15] = _op("mov", _EDI, LabelMem(buf, disp=8))
    ops[17] = _op("mov", LabelMem(buf, disp=12), _EDI)
    return ops


def _body(ops, n_ops, rng, start=0):
    """``n_ops`` straight-line body instructions for one block."""
    return [ops[(start + rng.randrange(len(ops))) % len(ops)]
            for _ in range(n_ops)]


def _diamond(code, ops, rng, name, bit, arm_ops, then_start, else_start):
    """An if/else split on bit ``bit`` of the LCG in eax, with
    ``arm_ops`` body instructions in each arm."""
    code += [_MOV_EBX_EAX, _SHR_EBX[bit], _AND_EBX_1,
             _jump("jnz", name + "_else")]
    code += _body(ops, arm_ops, rng, start=then_start)
    code += [_jump("jmp", name + "_end"), _label(name + "_else")]
    code += _body(ops, arm_ops, rng, start=else_start)
    code.append(_label(name + "_end"))


def _zero_trip_guard(code, name):
    """``test ecx, ecx`` and a never-taken ``jz`` to the next line."""
    code += [_TEST_ECX, _jump("jz", name), _label(name)]


def counted_nest(prefix, rng, depth=2, outer_iters=40, inner_iters=80,
                 body_ops=8, pre_ops=4, post_ops=4, post_diamonds=0,
                 seed=None):
    """Nested counted loops with straight-line inner bodies (FP style).

    ``pre_ops``/``post_ops`` put real work into the *outer* loop body
    around the inner loop (array setup, reductions), and
    ``post_diamonds`` adds data-dependent splits there.  Those splits are
    what differentiates the strategies on FP codes: their arms run
    ``outer_iters/2`` times — above CTT/TT's eager extension threshold
    but below MRET's hot threshold — so compact trace trees duplicate
    them while MRET never traces them (the paper's swim/mgrid rows where
    CTT > MRET > TT).
    """
    if seed is None:
        seed = rng.randrange(1, 2 ** 30)
    ops = _body_ops(prefix)
    code = [_label("%s_entry" % prefix), _op("mov", _EAX, Imm(seed))]
    data = [("%s_buf" % prefix, ".zero", 8), ("%s_bufb" % prefix, ".zero", 4)]
    iters = [max(2, outer_iters)] + [max(2, inner_iters)] * (depth - 1)
    # Open loops outermost-first, with pre-segment work at each level.
    # Each non-outermost loop is entered through a zero-trip guard
    # (compare + never-taken branch), like compiled for-loops: the guard
    # ends the preceding dynamic block, so the loop header is a block
    # leader from the first iteration on — which is what lets CTT close
    # inner cycles with a header link-back on its very first trunk.
    for level, count in enumerate(iters):
        if level > 0:
            code.append(_PUSH_ECX)
        code.append(_op("mov", _ECX, Imm(count)))
        if level > 0:
            _zero_trip_guard(code, "%s_l%d_guard" % (prefix, level))
        code.append(_label("%s_l%d" % (prefix, level)))
        if level + 1 < len(iters) and pre_ops:
            code += _LCG
            code += _body(ops, pre_ops, rng, start=level * 5)
    code += _body(ops, body_ops, rng)
    for level in range(depth - 1, -1, -1):
        code += [_DEC_ECX, _jump("jnz", "%s_l%d" % (prefix, level))]
        if level > 0:
            code.append(_POP_ECX)
            # Post-segment work between loop levels (imperfect nests).
            code += _body(ops, post_ops, rng, start=level * 7)
            for d in range(post_diamonds):
                _diamond(code, ops, rng, "%s_p%d_%d" % (prefix, level, d),
                         (d * 3 + level * 5 + 2) % 24, 3, d, d + 9)
    code.append(_RET)
    return KernelCode(prefix, code, data)


def fp_nest(prefix, rng, outer_iters=10, inner_iters=48, n_inner=2,
            body_ops=11, pre_ops=3, post_ops=4, post_diamonds=1, seed=None):
    """FP loop nest: a hot outer loop over ``n_inner`` *sequential*
    fixed-trip array loops (the classic swim/applu shape: one outer time
    step running several j-loops over arrays in turn).

    Strategy differentiation, matching the paper's FP rows:

    - MRET records one superblock per inner loop plus fragments of the
      outer body — the middle of the Table 1 ordering.
    - TT trees anchor at the inner headers, but every side-exit extension
      back to its anchor must cross a *sibling* inner loop; unrolling
      ``inner_iters`` fixed trips overflows the path limit, so the trees
      never grow past the inner bodies: TT < MRET.
    - CTT terminates those same extensions at the sibling's loop header
      with a link-back, then builds further trees from the outer header,
      duplicating the outer-body segments and their ``post_diamonds``
      arms (which run ``outer_iters/2`` times — hot enough for CTT's
      eager threshold, too cold for MRET's): CTT > MRET.
    """
    if seed is None:
        seed = rng.randrange(1, 2 ** 30)
    ops = _body_ops(prefix)
    code = [_label("%s_entry" % prefix), _op("mov", _EAX, Imm(seed)),
            _op("mov", _ECX, Imm(max(2, outer_iters))),
            _label("%s_outer" % prefix), _PUSH_ECX]
    data = [("%s_buf" % prefix, ".zero", 8)]
    for j in range(max(1, n_inner)):
        code += _LCG
        code += _body(ops, pre_ops, rng, start=j * 5)
        code.append(_op("mov", _ECX, Imm(max(2, inner_iters))))
        _zero_trip_guard(code, "%s_i%d_guard" % (prefix, j))
        code.append(_label("%s_i%d" % (prefix, j)))
        code += _body(ops, body_ops, rng, start=j * 3)
        code += [_DEC_ECX, _jump("jnz", "%s_i%d" % (prefix, j))]
        code += _body(ops, post_ops, rng, start=j * 7)
        for d in range(post_diamonds):
            _diamond(code, ops, rng, "%s_p%d_%d" % (prefix, j, d),
                     (d * 3 + j * 5 + 2) % 24, 3, d, d + 9)
    code += [_POP_ECX, _DEC_ECX, _jump("jnz", "%s_outer" % prefix), _RET]
    return KernelCode(prefix, code, data)


def branchy_loop(prefix, rng, iters=200, diamonds=3, body_ops=3,
                 arm_ops=4, seed=None):
    """One hot loop, ``diamonds`` data-dependent if/else splits."""
    if seed is None:
        seed = rng.randrange(1, 2 ** 30)
    ops = _body_ops(prefix)
    code = [_label("%s_entry" % prefix), _op("mov", _ECX, Imm(max(2, iters))),
            _op("mov", _EAX, Imm(seed)), _label("%s_loop" % prefix)]
    data = [("%s_buf" % prefix, ".zero", 8)]
    code += _LCG
    code += _body(ops, body_ops, rng)
    for d in range(diamonds):
        _diamond(code, ops, rng, "%s_d%d" % (prefix, d), (d * 5 + 1) % 24,
                 arm_ops, 0, 7)
    code += [_DEC_ECX, _jump("jnz", "%s_loop" % prefix), _RET]
    return KernelCode(prefix, code, data)


def branchy_nest(prefix, rng, outer_iters=120, inner_iters=5, diamonds=2,
                 body_ops=2, arm_ops=4, n_inner=2, seed=None):
    """Hot outer loop around ``n_inner`` sequential small-trip branchy
    inner loops whose trip counts vary per outer iteration (LCG-driven).

    This is the Table 1 explosion shape: a trace tree anchored at the
    first inner loop must route its side-exit extensions *through the
    sibling inner loops* back to the anchor.  TT unrolls each sibling
    (2..inner_iters+1 iterations, data-dependent), so iteration-count
    variants multiply with branch-direction variants — bzip2's 1.8 GB.
    CTT instead terminates extensions at the siblings' headers (loop
    headers on the path), and MRET just records superblocks, so the
    ordering MRET << CTT << TT emerges.
    """
    if seed is None:
        seed = rng.randrange(1, 2 ** 30)
    ops = _body_ops(prefix)
    code = [_label("%s_entry" % prefix),
            _op("mov", _ECX, Imm(max(2, outer_iters))),
            _op("mov", _EAX, Imm(seed)), _label("%s_outer" % prefix),
            _PUSH_ECX]
    data = [("%s_buf" % prefix, ".zero", 8)]
    mask = _pow2_mask(inner_iters)
    for j in range(max(1, n_inner)):
        code += _LCG
        # Trip count 2 .. inner_iters+1, varying with the LCG; the
        # zero-trip guard makes the header a block leader immediately
        # (see counted_nest).
        code += [_op("mov", _ECX, _EAX), _op("shr", _ECX, Imm(4 + 3 * j)),
                 _op("and", _ECX, Imm(mask)), _op("add", _ECX, Imm(2))]
        _zero_trip_guard(code, "%s_i%d_guard" % (prefix, j))
        code.append(_label("%s_i%d" % (prefix, j)))
        code += _LCG
        code += _body(ops, body_ops, rng, start=j * 2)
        for d in range(diamonds):
            _diamond(code, ops, rng, "%s_i%d_d%d" % (prefix, j, d),
                     (d * 7 + j * 11 + 3) % 24, arm_ops, 0, 11)
        code += [_DEC_ECX, _jump("jnz", "%s_i%d" % (prefix, j))]
        code += _body(ops, 2, rng, start=j * 5)
    code += [_POP_ECX, _DEC_ECX, _jump("jnz", "%s_outer" % prefix), _RET]
    return KernelCode(prefix, code, data)


def _pow2_mask(n):
    """Smallest power-of-two mask covering 0..n-1 (at least 1)."""
    mask = 1
    while mask + 1 < n:
        mask = (mask << 1) | 1
    return mask


def switch_loop(prefix, rng, iters=150, cases=8, case_ops=3,
                case_diamonds=1, seed=None):
    """Interpreter-style indirect dispatch over a jump table.

    ``case_diamonds`` puts data-dependent splits inside every case body
    (real interpreter opcodes branch internally), which is what lets the
    tree strategies duplicate case paths well past MRET's footprint on
    perlbmk/gap."""
    if seed is None:
        seed = rng.randrange(1, 2 ** 30)
    ops = _body_ops(prefix)
    cases = max(2, cases)
    mask = _pow2_mask(cases)
    n_cases = mask + 1
    code = [_label("%s_entry" % prefix), _op("mov", _ECX, Imm(max(2, iters))),
            _op("mov", _EAX, Imm(seed)), _label("%s_loop" % prefix)]
    code += _LCG
    code += [
        _MOV_EBX_EAX, _SHR_EBX[16], _op("and", _EBX, Imm(mask)),
        _op("mov", _EDX, LabelMem("%s_table" % prefix, index=EBX, scale=4)),
        _op("jmp", _EDX),
    ]
    join = _jump("jmp", "%s_join" % prefix)
    for c in range(n_cases):
        code.append(_label("%s_case%d" % (prefix, c)))
        code += _body(ops, case_ops, rng, start=c)
        for d in range(case_diamonds):
            _diamond(code, ops, rng, "%s_c%d_d%d" % (prefix, c, d),
                     (c * 3 + d * 7 + 2) % 24, 2, c + d, c + d + 9)
        code.append(join)
    code += [_label("%s_join" % prefix), _DEC_ECX,
             _jump("jnz", "%s_loop" % prefix), _RET]
    data = [("%s_buf" % prefix, ".zero", 8),
            ("%s_table" % prefix, ".word",
             ["%s_case%d" % (prefix, c) for c in range(n_cases)])]
    return KernelCode(prefix, code, data)


def call_loop(prefix, rng, iters=150, n_funcs=3, func_ops=5, indirect=False,
              func_diamonds=1, seed=None):
    """Hot loop calling helper functions, directly or via a table.

    ``func_diamonds`` adds data-dependent splits inside the callees
    (virtual methods branch internally), feeding the tree strategies'
    path duplication on eon-like codes."""
    if seed is None:
        seed = rng.randrange(1, 2 ** 30)
    ops = _body_ops(prefix)
    n_funcs = max(1, n_funcs)
    code = [_label("%s_entry" % prefix), _op("mov", _ECX, Imm(max(2, iters))),
            _op("mov", _EAX, Imm(seed)), _label("%s_loop" % prefix),
            _PUSH_ECX]
    data = [("%s_buf" % prefix, ".zero", 8)]
    if indirect:
        mask = _pow2_mask(n_funcs)
        n_funcs = mask + 1
        code += _LCG
        code += [
            _MOV_EBX_EAX, _SHR_EBX[8], _op("and", _EBX, Imm(mask)),
            _op("mov", _EDX, LabelMem("%s_ftab" % prefix, index=EBX, scale=4)),
            _op("call", _EDX),
        ]
        data.append(("%s_ftab" % prefix, ".word",
                     ["%s_f%d" % (prefix, f) for f in range(n_funcs)]))
    else:
        code += [_jump("call", "%s_f%d" % (prefix, f))
                 for f in range(n_funcs)]
    code += [_POP_ECX, _DEC_ECX, _jump("jnz", "%s_loop" % prefix), _RET]
    for f in range(n_funcs):
        code.append(_label("%s_f%d" % (prefix, f)))
        code += _body(ops, func_ops, rng, start=f * 3)
        for d in range(func_diamonds):
            _diamond(code, ops, rng, "%s_f%d_d%d" % (prefix, f, d),
                     (f * 5 + d * 7 + 1) % 24, 2, f + d, f + d + 9)
        code.append(_RET)
    return KernelCode(prefix, code, data)


def rep_copy_loop(prefix, rng, iters=10, words=24):
    """REP MOVSD copies in a loop (the Section 4.1 counting mismatch)."""
    code = [_label("%s_entry" % prefix), _op("mov", _ECX, Imm(max(1, iters))),
            _label("%s_loop" % prefix), _PUSH_ECX,
            _op("mov", _ECX, Imm(words)),
            _op("mov", _ESI, LabelRef("%s_src" % prefix)),
            _op("mov", _EDI, LabelRef("%s_dst" % prefix)), _op("rep_movsd"),
            _POP_ECX, _DEC_ECX, _jump("jnz", "%s_loop" % prefix), _RET]
    data = [("%s_src" % prefix, ".zero", words),
            ("%s_dst" % prefix, ".zero", words)]
    return KernelCode(prefix, code, data)


def straightline(prefix, rng, n_ops=40):
    """Run-once straight-line code: cold footprint and cold coverage."""
    ops = _body_ops(prefix)
    code = [_label("%s_entry" % prefix)]
    data = [("%s_buf" % prefix, ".zero", 8)]
    done = 0
    while done < n_ops:
        chunk = min(max(3, rng.randrange(4, 9)), n_ops - done)
        code += _body(ops, chunk, rng, start=done)
        done += chunk
        if done < n_ops:
            # A forward conditional to break blocks up like real code.
            name = "%s_s%d" % (prefix, done)
            code += [_TEST_EDX[done % 8], _jump("jz", name), _label(name)]
    code.append(_RET)
    return KernelCode(prefix, code, data)


#: Kernel kind name -> builder, for the generator's spec tables.
KERNEL_KINDS = {
    "counted_nest": counted_nest,
    "fp_nest": fp_nest,
    "branchy_loop": branchy_loop,
    "branchy_nest": branchy_nest,
    "switch_loop": switch_loop,
    "call_loop": call_loop,
    "rep_copy_loop": rep_copy_loop,
    "straightline": straightline,
}


# ----------------------------------------------------------------------
# The paper's figure programs
# ----------------------------------------------------------------------

FIGURE1_SOURCE = """
; Figure 1(a): copy one hundred words from [esi] to [edi].
main:
    mov esi, fig1_src
    mov edi, fig1_dst
    mov ecx, 100
fig1_loop:
    mov eax, [esi]          ; (1)
    mov [edi], eax          ; (2)
    add esi, 4              ; (3)
    add edi, 4              ; (4)
    dec ecx                 ; (5)
    jnz fig1_loop           ; (6)
    hlt
.data
fig1_src: .zero 100
fig1_dst: .zero 100
"""


FIGURE2_SOURCE = """
; Figure 2(a): scan the linked list pointed to by edx, count in eax the
; nodes whose value equals ecx.
main:
    mov eax, 0
    mov edx, [fig2_head]
    mov ecx, [fig2_needle]
begin:
    cmp edx, 0
    jz end
header:
    mov ebx, [edx]          ; node value
    cmp ebx, ecx
    jnz next
inc_:
    inc eax
next:
    mov edx, [edx+4]        ; node->next
    cmp edx, 0
    jnz header
end:
    hlt
.data
fig2_head: .word 0
fig2_needle: .word 7
"""


def figure1_program():
    """The Figure 1(a) memcpy loop, assembled and ready to run."""
    return assemble(FIGURE1_SOURCE)


def figure2_program(list_length=400, needle=7, match_every=5):
    """The Figure 2(a) linked-list scan with a generated list.

    Every ``match_every``-th node holds ``needle`` so both the taken and
    fall-through sides of the ``$$header`` comparison are hot, producing
    the paper's T1/T2 trace pair under MRET.
    """
    program = assemble(FIGURE2_SOURCE)
    head = program.label_addr("fig2_head")
    needle_addr = program.label_addr("fig2_needle")
    base = 0x0A000000
    data = dict(program.data)
    data[needle_addr] = needle
    for i in range(list_length):
        node = base + 8 * i
        value = needle if (i % match_every) == 0 else (i * 3 + 1) & 0xFFFF
        if value == needle and (i % match_every) != 0:
            value += 1
        data[node] = value
        data[node + 4] = node + 8 if i + 1 < list_length else 0
    data[head] = base
    program.data = data
    return program
