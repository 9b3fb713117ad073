"""Tokenizer tests."""

import pytest

from repro.asm.tokenizer import (parse_int, parse_mem_operand,
                                 parse_symbol_expr, split_operands,
                                 tokenize)
from repro.errors import AssemblerError


def test_blank_and_comment_lines_skipped():
    lines = tokenize("\n# full comment\n   ; also comment\n\n")
    assert lines == []


def test_label_only_line():
    lines = tokenize("loop:\n")
    assert len(lines) == 1
    assert lines[0].label == "loop" and lines[0].mnemonic is None


def test_label_with_instruction():
    lines = tokenize("top:  addi $t0, $t1, 4  # bump")
    assert lines[0].label == "top"
    assert lines[0].mnemonic == "addi"
    assert lines[0].operands == ["$t0", "$t1", "4"]


def test_line_numbers_are_one_based():
    lines = tokenize("\n\n  nop\n")
    assert lines[0].number == 3


def test_mnemonic_lowercased():
    assert tokenize("ADD $t0, $t1, $t2")[0].mnemonic == "add"


def test_split_operands_memory_form():
    assert split_operands("$t0, 8($sp)", 1) == ["$t0", "8($sp)"]


def test_split_operands_rejects_unbalanced():
    with pytest.raises(AssemblerError):
        split_operands("$t0, 8($sp", 1)
    with pytest.raises(AssemblerError):
        split_operands("$t0, 8)$sp(", 1)


def test_split_operands_rejects_empty():
    with pytest.raises(AssemblerError):
        split_operands("$t0,, $t1", 1)


def test_split_operands_char_literal_comma():
    assert split_operands("$t0, ','", 1) == ["$t0", "','"]


def test_parse_int_forms():
    assert parse_int("42", 1) == 42
    assert parse_int("-7", 1) == -7
    assert parse_int("0x10", 1) == 16
    assert parse_int("0XFF", 1) == 255
    assert parse_int("'A'", 1) == 65


def test_parse_int_rejects_garbage():
    with pytest.raises(AssemblerError):
        parse_int("twelve", 1)
    with pytest.raises(AssemblerError):
        parse_int("0x", 1)


def test_parse_int_rejects_leading_zero_decimal():
    """The literal pattern accepts "0123", but Python's base-0 parse
    does not (a leading zero is no base prefix): still a clean error."""
    with pytest.raises(AssemblerError) as err:
        parse_int("0123", 7)
    assert err.value.line == 7
    assert parse_int("00", 1) == 0


def test_parse_mem_operand():
    assert parse_mem_operand("8($sp)", 1) == ("8", "$sp")
    assert parse_mem_operand("($t0)", 1) == ("0", "$t0")
    assert parse_mem_operand("arr+4($gp)", 1) == ("arr+4", "$gp")


def test_parse_mem_operand_rejects_bad_shape():
    with pytest.raises(AssemblerError):
        parse_mem_operand("8[$sp]", 1)


def test_parse_symbol_expr():
    assert parse_symbol_expr("foo") == ("foo", 1, "0")
    assert parse_symbol_expr("foo+8") == ("foo", 1, "8")
    assert parse_symbol_expr("foo - 4") == ("foo", -1, "4")
    assert parse_symbol_expr("123") is None
    assert parse_symbol_expr("-5") is None
