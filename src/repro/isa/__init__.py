"""SX86: a small x86-flavoured 32-bit ISA.

This package is the ground-truth substrate replacing the IA-32 binaries the
paper executed.  It provides:

- :mod:`repro.isa.registers` — the eight general-purpose registers.
- :mod:`repro.isa.operands` — register / immediate / memory operand model.
- :mod:`repro.isa.instructions` — the instruction set and its metadata
  (which opcodes are branches, calls, REP-prefixed, block splitters...).
- :mod:`repro.isa.encoding` — a documented byte-length model so programs
  have realistic x86-like code addresses and code-size accounting.
- :mod:`repro.isa.program` — an assembled program image.
- :mod:`repro.isa.assembler` — a two-pass assembler of instruction records
  or SX86 text.

TEA itself only ever sees program counters and branch edges, so any ISA with
conditional/indirect control flow, calls and REP string ops exercises the
same code paths as IA-32 (see DESIGN.md, substitution table).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.isa.assembler import assemble
    from repro.isa.instructions import OPCODES, Instruction, OpcodeSpec
    from repro.isa.operands import Imm, LabelRef, Mem, Reg
    from repro.isa.program import Program
    from repro.isa.registers import (
        EAX,
        EBP,
        EBX,
        ECX,
        EDI,
        EDX,
        ESI,
        ESP,
        NUM_REGISTERS,
        REGISTER_NAMES,
        register_index,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    ".assembler": ("assemble",),
    ".instructions": ("OPCODES", "Instruction", "OpcodeSpec"),
    ".operands": ("Imm", "LabelRef", "Mem", "Reg"),
    ".program": ("Program",),
    ".registers": ("EAX", "EBP", "EBX", "ECX", "EDI", "EDX", "ESI", "ESP",
                   "NUM_REGISTERS", "REGISTER_NAMES", "register_index"),
})

__all__ = [
    "assemble",
    "Instruction",
    "OPCODES",
    "OpcodeSpec",
    "Imm",
    "LabelRef",
    "Mem",
    "Reg",
    "Program",
    "EAX",
    "EBX",
    "ECX",
    "EDX",
    "ESI",
    "EDI",
    "EBP",
    "ESP",
    "NUM_REGISTERS",
    "REGISTER_NAMES",
    "register_index",
]
