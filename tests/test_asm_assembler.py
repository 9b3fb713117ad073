"""Assembler tests: sections, labels, fixups, errors."""

import pytest

from repro.asm import assemble
from repro.errors import AssemblerError
from repro.isa.opcodes import Op


def test_minimal_program():
    prog = assemble(".text\nmain:\n    halt\n")
    assert len(prog) == 1
    assert prog.instructions[0].op is Op.HALT
    assert prog.entry == prog.symbols["main"] == prog.text_base


def test_text_is_default_section():
    prog = assemble("nop\nhalt\n")
    assert len(prog) == 2


def test_branch_backward_displacement():
    prog = assemble("""
        .text
    loop:
        addi $t0, $t0, 1
        bne  $t0, $zero, loop
        halt
    """)
    branch = prog.instructions[1]
    # branch at text_base+4 targeting text_base: displacement -4
    assert branch.imm == -4


def test_branch_forward_displacement():
    prog = assemble("""
        beq $t0, $zero, done
        nop
    done:
        halt
    """)
    assert prog.instructions[0].imm == 8


def test_jump_target_absolute():
    prog = assemble("""
    main:
        j end
        nop
    end:
        halt
    """)
    assert prog.instructions[0].imm == prog.symbols["end"]


def test_data_words_and_symbols():
    prog = assemble("""
        .data
    arr: .word 1, 2, 3
    tail: .word 99
        .text
        halt
    """)
    assert prog.symbols["arr"] == prog.data_base
    assert prog.symbols["tail"] == prog.data_base + 12
    assert prog.data[:4] == (1).to_bytes(4, "little")


def test_data_word_symbol_initializer():
    prog = assemble("""
        .data
    a: .word b
    b: .word a+4
        .text
        halt
    """)
    a_addr, b_addr = prog.symbols["a"], prog.symbols["b"]
    assert int.from_bytes(prog.data[0:4], "little") == b_addr
    assert int.from_bytes(prog.data[4:8], "little") == a_addr + 4


def test_half_byte_space_align():
    prog = assemble("""
        .data
    h: .half 1, 2
    b: .byte 3
        .align 4
    w: .word 7
        .text
        halt
    """)
    assert prog.symbols["h"] == prog.data_base
    assert prog.symbols["b"] == prog.data_base + 4
    assert prog.symbols["w"] % 4 == 0
    assert prog.data[prog.symbols["w"] - prog.data_base] == 7


def test_space_reserves_zeroed_bytes():
    prog = assemble(".data\nbuf: .space 16\n.text\nhalt\n")
    assert prog.data[:16] == bytes(16)


def test_equ_constants():
    prog = assemble("""
        .equ SIZE, 12
        li $t0, SIZE
        addi $t1, $t0, SIZE
        halt
    """)
    assert prog.instructions[0].imm == 12
    assert prog.instructions[1].imm == 12


def test_la_loads_symbol_address():
    prog = assemble("""
        .data
    arr: .word 5
        .text
        la $t0, arr
        halt
    """)
    # la expands to lui+addi; run it to check the loaded address.
    from repro.machine import Executor
    ex = Executor(prog)
    ex.step()  # lui
    ex.step()  # addi
    assert ex.state.read_reg(8) == prog.symbols["arr"]


def test_memory_operand_with_symbol_displacement():
    # The default data base does not fit a 16-bit displacement, so use
    # a low one — absolute-addressed globals are a small-model idiom.
    prog = assemble("""
        .data
    v: .word 1
        .text
        lw $t0, v($zero)
        halt
    """, data_base=0x2000)
    assert prog.instructions[0].imm == prog.symbols["v"] == 0x2000


def test_symbol_displacement_out_of_range_rejected():
    with pytest.raises(AssemblerError):
        assemble(".data\nv: .word 1\n.text\nlw $t0, v($zero)\nhalt\n")


def test_pc_assignment_sequential():
    prog = assemble("nop\nnop\nnop\nhalt\n")
    pcs = [instr.pc for instr in prog.instructions]
    assert pcs == [prog.text_base + 4 * i for i in range(4)]


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("a:\n nop\na:\n halt\n")


def test_undefined_symbol_rejected():
    with pytest.raises(AssemblerError) as err:
        assemble("j nowhere\n")
    assert "nowhere" in str(err.value)


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblerError):
        assemble("fnord $t0\n")


def test_unknown_directive_rejected():
    with pytest.raises(AssemblerError):
        assemble(".bogus 3\n")


def test_wrong_operand_count_rejected():
    with pytest.raises(AssemblerError):
        assemble("add $t0, $t1\n")


def test_bad_register_rejected():
    with pytest.raises(AssemblerError):
        assemble("add $t0, $t1, $q9\n")


def test_immediate_out_of_range_rejected():
    with pytest.raises(AssemblerError):
        assemble(".equ BIG, 70000\naddi $t0, $t1, BIG\nhalt\n")


def test_instruction_in_data_section_rejected():
    with pytest.raises(AssemblerError):
        assemble(".data\nadd $t0, $t1, $t2\n")


def test_error_carries_line_number():
    with pytest.raises(AssemblerError) as err:
        assemble("nop\nnop\nbadop $t0\n")
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_custom_section_bases():
    prog = assemble("halt\n", text_base=0x8000, data_base=0x200000)
    assert prog.text_base == 0x8000
    assert prog.instructions[0].pc == 0x8000


def test_jalr_one_operand_defaults_link_to_ra():
    prog = assemble("jalr $t0\nhalt\n")
    assert prog.instructions[0].rd == 31


def test_encoded_text_round_trips():
    from repro.isa.encoding import decode
    prog = assemble("""
        .data
    arr: .word 1, 2
        .text
    main:
        la   $s0, arr
        li   $t0, 2
    loop:
        lw   $t1, 0($s0)
        addi $s0, $s0, 4
        addi $t0, $t0, -1
        bgtz $t0, loop
        halt
    """)
    for instr, word in zip(prog.instructions, prog.encoded_text()):
        decoded = decode(word)
        assert decoded.op is instr.op
        assert decoded.imm == instr.imm


def test_listing_contains_addresses():
    prog = assemble("nop\nhalt\n")
    listing = prog.listing()
    assert f"{prog.text_base:08x}" in listing
    assert "halt" in listing


@pytest.mark.parametrize("source,line", [
    ("li r2, 0123", 1),                                 # int() rejects
    ("buf: .space -5", 1),                              # negative count
    ("nop\nbuf: .space 99999999999999999999999", 2),    # overflows
    (".data\nbuf: .space 34702064133516", 2),            # out of memory
    (".data\n.byte 1\n.align 99999999999", 3),           # huge padding
    ("add $\u00b2, $t0, $t1", 1),                       # "²".isdigit()
])
def test_malformed_source_raises_assembler_error(source, line):
    with pytest.raises(AssemblerError) as err:
        assemble(source)
    assert err.value.line == line


def test_space_fills_data_region_up_to_the_stack():
    from repro.program.loader import STACK_TOP
    room = STACK_TOP - 0x100000
    prog = assemble(f".data\nbuf: .space {room}\n.text\nhalt\n")
    assert len(prog.data) == room
    with pytest.raises(AssemblerError):
        assemble(f".data\nbuf: .space {room + 1}\n.text\nhalt\n")
