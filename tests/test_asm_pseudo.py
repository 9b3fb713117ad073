"""Pseudo-instruction expansion tests."""

import pytest

from repro.asm.pseudo import _hi_lo, expand
from repro.errors import AssemblerError


def test_move_expands_to_addi_zero():
    assert expand("move", ["$t0", "$t1"], 1) == \
        [("addi", ["$t0", "$t1", "0"])]


def test_clear_expands_to_zero_move():
    assert expand("clear", ["$t0"], 1) == [("addi", ["$t0", "$zero", "0"])]


def test_li_small_single_instruction():
    assert expand("li", ["$t0", "42"], 1) == \
        [("addi", ["$t0", "$zero", "42"])]
    assert expand("li", ["$t0", "-32768"], 1) == \
        [("addi", ["$t0", "$zero", "-32768"])]


def test_li_large_expands_to_pair():
    out = expand("li", ["$t0", "0x12345"], 1)
    assert out[0][0] == "lui"
    assert out[1][0] == "addi"


def test_li_exact_multiple_of_64k_skips_low_half():
    out = expand("li", ["$t0", "0x20000"], 1)
    assert len(out) == 1 and out[0][0] == "lui"


def test_li_rejects_a_value_no_register_holds():
    """``li`` takes any value that fits 32 bits signed or unsigned, and
    names the line of one that does not (46000000000 used to load
    -1,244,640,256)."""
    assert len(expand("li", ["$s0", str(2 ** 32 - 1)], 3)) == 2
    assert len(expand("li", ["$s0", str(-2 ** 31)], 3)) == 1
    for value in (46000000000, 2 ** 32, -2 ** 31 - 1):
        with pytest.raises(AssemblerError,
                           match=f"line 3: li value {value} "):
            expand("li", ["$s0", str(value)], 3)


def test_hi_lo_reconstruction():
    for value in (0x12345678, -1, 0x7FFFFFFF, -0x80000000, 0xFFFF,
                  0x8000, 0x18000, 123456789):
        hi, lo = _hi_lo(value)
        from repro.isa.semantics import to_s32
        assert to_s32((hi << 16) + lo) == to_s32(value)


def test_branch_pseudos_use_slt_pairs():
    out = expand("blt", ["$t0", "$t1", "loop"], 1)
    assert out == [("slt", ["$at", "$t0", "$t1"]),
                   ("bne", ["$at", "$zero", "loop"])]
    out = expand("bge", ["$t0", "$t1", "loop"], 1)
    assert out[1][0] == "beq"
    out = expand("bgt", ["$t0", "$t1", "loop"], 1)
    assert out[0] == ("slt", ["$at", "$t1", "$t0"])


def test_unsigned_compare_branches():
    assert expand("bltu", ["$t0", "$t1", "x"], 1)[0][0] == "sltu"


def test_ret_and_call():
    assert expand("ret", [], 1) == [("jr", ["$ra"])]
    assert expand("call", ["f"], 1) == [("jal", ["f"])]


def test_b_is_unconditional_jump():
    assert expand("b", ["dest"], 1) == [("j", ["dest"])]


def test_subi_negates():
    assert expand("subi", ["$t0", "$t1", "5"], 1) == \
        [("addi", ["$t0", "$t1", "-5"])]


def test_neg_and_not():
    assert expand("neg", ["$t0", "$t1"], 1) == \
        [("sub", ["$t0", "$zero", "$t1"])]
    assert expand("not", ["$t0", "$t1"], 1) == \
        [("nor", ["$t0", "$t1", "$zero"])]


def test_seq_sne():
    assert expand("seq", ["$t0", "$t1", "$t2"], 1)[1][0] == "sltiu"
    assert expand("sne", ["$t0", "$t1", "$t2"], 1)[1][0] == "sltu"


def test_operand_count_checked():
    with pytest.raises(AssemblerError):
        expand("move", ["$t0"], 1)
    with pytest.raises(AssemblerError):
        expand("ret", ["$t0"], 1)


def test_unknown_pseudo_rejected():
    with pytest.raises(AssemblerError):
        expand("frob", [], 1)
