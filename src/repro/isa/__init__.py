"""Instruction-set architecture for the reproduction.

The ISA is modelled on the SimpleScalar 2.0 instruction set used by the
paper: a MIPS-IV-like RISC ISA with architected delay slots removed and
indexed (register + register) memory operations added.

Public surface:

* :mod:`repro.isa.registers` -- architected register file names.
* :mod:`repro.isa.opcodes` -- :class:`Op` opcode enumeration and static
  metadata (format, operation class, execution latency).
* :mod:`repro.isa.instruction` -- :class:`Instruction`, the mutable
  in-pipeline representation carrying fill-unit annotations.
* :mod:`repro.isa.decoded` -- decode-once :class:`Decoded` records.
* :mod:`repro.isa.semantics` -- pure functional evaluation.
* :mod:`repro.isa.disasm` -- textual disassembly.
"""

from repro.isa.instruction import Instruction, ScaleAnnotation
from repro.isa.opcodes import Op, OpClass, op_info
from repro.isa.registers import (
    NUM_REGS,
    REG_NAMES,
    ZERO_REG,
    reg_name,
    reg_number,
)

__all__ = [
    "Instruction",
    "ScaleAnnotation",
    "Op",
    "OpClass",
    "op_info",
    "NUM_REGS",
    "REG_NAMES",
    "ZERO_REG",
    "reg_name",
    "reg_number",
]
