"""The generator's records path against the text assembler.

Generated programs never pass through SX86 text: kernels emit
``(label, opcode, operands)`` records that the assembler's back half
lays out.  Hand-written sources are parsed into the same records and
fed through the same entry.  These tests pin both halves of that:

- every program :mod:`tests.test_program_digests` covers assembles
  from its rendered ``WorkloadProgram.source`` to the program the
  records built (content digest, labels in order, data, image bytes);
- building a benchmark never calls the text parser;
- every refusal raises the same message through either entry.
"""

import pytest

from repro.errors import AssemblerError
from repro.isa import assemble
from repro.isa.assembler import (
    _REFUSED_OPERANDS,
    Assembler,
    assemble_records,
)
from repro.isa.image import encode_image
from repro.isa.operands import Imm, LabelMem, LabelRef, Mem, Reg
from repro.workloads import load_benchmark
from tests.test_program_digests import _cases, _key

OWNER = "5e" * 32


@pytest.mark.parametrize("name,scale", list(_cases()),
                         ids=[_key(*case) for case in _cases()])
def test_text_of_a_generated_program_assembles_to_the_same_program(name,
                                                                  scale):
    workload = load_benchmark(name, scale=scale)
    built = workload.program
    parsed = assemble(workload.source)
    assert parsed.content_digest() == built.content_digest()
    assert list(parsed.labels.items()) == list(built.labels.items())
    assert list(parsed.data.items()) == list(built.data.items())
    assert encode_image(parsed, OWNER) == encode_image(built, OWNER)


def test_building_a_benchmark_never_parses_text(monkeypatch):
    def refuse(self, source):
        raise AssertionError("the text parser ran")

    expected = load_benchmark("176.gcc", scale=0.3).program.content_digest()
    monkeypatch.setattr(Assembler, "feed", refuse)
    workload = load_benchmark("176.gcc", scale=0.3)
    assert workload.program.content_digest() == expected
    with pytest.raises(AssertionError, match="text parser"):
        assemble(workload.source)


def test_generated_operand_tuples_stay_shared():
    """``content_digest``, ``encode_image`` and the interpreter's decode
    memo key on ``(opcode, id(operands))``; the records path must share
    tuples at least as well as the text assembler did (1,492 keys for
    this program)."""
    program = load_benchmark("176.gcc", scale=0.3).program
    keys = {(instr.opcode, id(instr.operands)) for instr in program}
    assert len(program) == 4774
    assert len(keys) <= 1492


# ---------------------------------------------------------------------
# error parity: the text entry and the records entry refuse alike
# ---------------------------------------------------------------------

_MAIN = ("main", None, None)
_NOP = (None, "nop", ())
_HLT = (None, "hlt", ())

#: One operand of each type: (record operand, its text).
_OPERANDS = {
    Reg: (Reg(0), "eax"),
    Imm: (Imm(5), "5"),
    LabelRef: (LabelRef("main"), "main"),
    Mem: (Mem(base=1, disp=4), "[ebx+4]"),
    LabelMem: (LabelMem("buf", disp=4), "[buf+4]"),
}

#: An opcode of each kind ``_REFUSED_OPERANDS`` lists.
_OPCODE_OF_KIND = {"jcc": "jz", "unary": "inc", "push": "push",
                   "pop": "pop", "alu": "add", "mov": "mov", "lea": "lea"}


def _refused_forms():
    """``(text, code, data)`` of a program whose line 3 holds each form
    ``_REFUSED_OPERANDS`` lists, a label-bearing memory operand wherever
    a memory operand is refused."""
    forms = []
    for kind, refusals in sorted(_REFUSED_OPERANDS.items()):
        opcode = _OPCODE_OF_KIND[kind]
        for slot, refused, _takes in refusals:
            kinds = list(refused) + ([LabelMem] if Mem in refused else [])
            for refused_kind in kinds:
                operands = [_OPERANDS[Reg]] * (2 if kind in ("alu", "mov",
                                                             "lea") else 1)
                operands[slot] = _OPERANDS[refused_kind]
                text = "    %s %s" % (opcode, ", ".join(
                    operand_text for _, operand_text in operands))
                forms.append(pytest.param(
                    "main:\n    nop\n%s\n.data\nbuf: .zero 4" % text,
                    [_MAIN, _NOP, (None, opcode,
                                   tuple(operand for operand, _ in operands))],
                    [("buf", ".zero", 4)],
                    id="%s-operand%d-%s" % (opcode, slot + 1,
                                            refused_kind.__name__)))
    return forms


_REFUSALS = [
    pytest.param("main:\n    bogus eax",
                 [_MAIN, (None, "bogus", (Reg(0),))], [],
                 id="unknown-opcode"),
    pytest.param("main:\n    mov eax",
                 [_MAIN, (None, "mov", (Reg(0),))], [], id="arity"),
    pytest.param("main:\n    nop\n    ret 5",
                 [_MAIN, _NOP, (None, "ret", (Imm(5),))], [],
                 id="arity-of-none"),
    pytest.param("dup:\n    nop\ndup:\n    hlt",
                 [("dup", None, None), _NOP, ("dup", None, None), _HLT], [],
                 id="duplicate-code-label"),
    pytest.param("main:\n    hlt\n.data\nx: .zero 1\nx: .zero 1",
                 [_MAIN, _HLT], [("x", ".zero", 1), ("x", ".zero", 1)],
                 id="duplicate-data-label"),
    pytest.param("main:\n    hlt\n.data\nmain: .zero 1",
                 [_MAIN, _HLT], [("main", ".zero", 1)],
                 id="data-label-named-like-code"),
    pytest.param("main:\n    jmp missing\n    hlt",
                 [_MAIN, (None, "jmp", (LabelRef("missing"),)), _HLT], [],
                 id="undefined-branch-target"),
    pytest.param("main:\n    mov eax, missing\n    hlt",
                 [_MAIN, (None, "mov", (Reg(0), LabelRef("missing"))),
                  _HLT], [],
                 id="undefined-data-address"),
    pytest.param("main:\n    mov eax, [missing+4]\n    hlt",
                 [_MAIN, (None, "mov", (Reg(0), LabelMem("missing", disp=4))),
                  _HLT], [],
                 id="undefined-displacement"),
    pytest.param("main:\n    hlt\n.data\nt: .word 1, missing",
                 [_MAIN, _HLT], [("t", ".word", ["1", "missing"])],
                 id="undefined-word"),
    pytest.param("main:\n    hlt\n.data\nt: .zero 0",
                 [_MAIN, _HLT], [("t", ".zero", 0)], id="empty-zero"),
] + _refused_forms()


@pytest.mark.parametrize("text,code,data", _REFUSALS)
def test_text_and_records_entries_refuse_alike(text, code, data):
    with pytest.raises(AssemblerError) as from_text:
        assemble(text)
    with pytest.raises(AssemblerError) as from_records:
        assemble_records(code, data)
    assert str(from_records.value) == str(from_text.value)
    assert from_records.value.line == from_text.value.line
