"""Property-based round-trip test: disassemble, then reassemble."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.isa.disasm import disassemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Op, op_info

regs = st.integers(min_value=0, max_value=31)
imm16 = st.integers(min_value=-32768, max_value=32767)
shamt = st.integers(min_value=0, max_value=31)
branch_off = st.integers(min_value=-8192, max_value=8191).map(lambda w: w * 4)
jump_target = st.integers(min_value=0, max_value=(1 << 20)).map(lambda w: w * 4)


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(list(Op)))
    fmt = op_info(op).format
    if fmt is Format.R3:
        return Instruction(op, rd=draw(regs), rs=draw(regs), rt=draw(regs))
    if fmt is Format.R2I:
        return Instruction(op, rd=draw(regs), rs=draw(regs), imm=draw(imm16))
    if fmt is Format.SHIFT:
        return Instruction(op, rd=draw(regs), rs=draw(regs), imm=draw(shamt))
    if fmt is Format.LUI:
        return Instruction(op, rd=draw(regs), imm=draw(imm16))
    if fmt is Format.LOAD:
        return Instruction(op, rd=draw(regs), rs=draw(regs), imm=draw(imm16))
    if fmt is Format.STORE:
        return Instruction(op, rt=draw(regs), rs=draw(regs), imm=draw(imm16))
    if fmt in (Format.LOADX, Format.STOREX):
        return Instruction(op, rd=draw(regs), rs=draw(regs), rt=draw(regs))
    if fmt is Format.BR2:
        return Instruction(op, rs=draw(regs), rt=draw(regs),
                           imm=draw(branch_off))
    if fmt is Format.BR1:
        return Instruction(op, rs=draw(regs), imm=draw(branch_off))
    if fmt is Format.J:
        return Instruction(op, imm=draw(jump_target))
    if fmt is Format.JR:
        return Instruction(op, rs=draw(regs))
    if fmt is Format.JALR:
        return Instruction(op, rd=draw(regs), rs=draw(regs))
    return Instruction(op)


@given(instructions())
@settings(max_examples=300)
def test_disassemble_reassemble_roundtrip(instr):
    """The disassembler's output is valid assembler input producing an
    identical instruction (branch displacements resolve numerically)."""
    text = disassemble(instr, show_annotations=False)
    program = assemble(".text\n" + text + "\n")
    back = program.instructions[0]
    assert back.op is instr.op
    assert back.rd == instr.rd
    assert back.rs == instr.rs
    assert back.rt == instr.rt
    assert back.imm == instr.imm

