"""Malformed assembly fails cleanly.

Starting from a valid program that uses every directive and most
operand shapes, hypothesis inserts, deletes and splices characters and
integer literals. Whatever comes out, ``assemble`` either succeeds or
raises :class:`AssemblerError`; any other exception is a bug.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.errors import AssemblerError

SEED = """
    .equ SIZE, 12
    .data
tab: .word 1, 2, tab+4
h:   .half 3, -1
b:   .byte 'a', 0x7f
     .align 4
buf: .space 16
    .text
main:
    li   $t0, SIZE
    la   $t1, tab
    lw   $t2, 4($t1)
    sw   $t2, SIZE($t1)
    addi $t5, $t1, %lo(buf)
    sll  $t3, $t2, 2
loop:
    addi $t0, $t0, -1
    bgt  $t0, $zero, loop
    lui  $t4, %hi(buf)
    jal  func
    halt
func:
    jr   $ra
"""

#: characters the grammar gives meaning to, plus a few it does not
ALPHABET = "$,()%:.+-'#; \n0123456789xXabfhilrstz_\t٣²"


_TOKEN = re.compile(r"(?P<int>-?\b(0x[0-9a-fA-F]+|\d+)\b)|\$\w+")


@st.composite
def literal(draw) -> str:
    """An integer literal: decimal, hex, or with a leading zero."""
    value = draw(st.one_of(st.integers(-2 ** 80, 2 ** 80),
                           st.integers(-70000, 70000)))
    style = draw(st.sampled_from(["dec", "hex", "zero"]))
    if style == "hex":
        return f"{'-' if value < 0 else ''}{abs(value):#x}"
    if style == "zero":
        return f"0{abs(value)}"
    return str(value)


@st.composite
def mutated(draw) -> str:
    source = SEED
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["insert", "delete", "splice", "int", "retoken"]))
        tokens = list(_TOKEN.finditer(source))
        if kind == "retoken" and tokens:
            # Replace a whole literal or register, so the new text
            # keeps its role (a .space size, a shift amount, ...).
            found = draw(st.sampled_from(tokens))
            new = (draw(literal()) if found.group("int")
                   else "$" + draw(st.text(ALPHABET, max_size=3)))
            source = source[:found.start()] + new + source[found.end():]
            continue
        at = draw(st.integers(0, len(source)))
        if kind == "insert":
            text = draw(st.text(ALPHABET, min_size=1, max_size=3))
            source = source[:at] + text + source[at:]
        elif kind == "delete":
            end = at + draw(st.integers(1, 8))
            source = source[:at] + source[end:]
        elif kind == "splice":
            start = draw(st.integers(0, len(SEED) - 1))
            piece = SEED[start:start + draw(st.integers(1, 24))]
            source = source[:at] + piece + source[at:]
        elif kind == "int":
            source = source[:at] + draw(literal()) + source[at:]
    return source


def test_seed_assembles():
    assert len(assemble(SEED).instructions) > 10


@given(mutated())
@settings(max_examples=300, deadline=None)
def test_mutated_source_assembles_or_raises_assembler_error(source):
    try:
        assemble(source)
    except AssemblerError:
        pass
