"""Workload lint rules, on crafted defects and the real workloads."""

from repro import workloads
from repro.analysis.static import analyze_program
from repro.analysis.static.cfg import build_cfg
from repro.analysis.static.lint import lint_program
from repro.asm import assemble
from repro.core.config import SimConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.program.image import Program


def _rules(findings):
    return {f.rule for f in findings}


def test_bad_branch_target_error():
    program = Program(instructions=[
        Instruction(Op.ADDI, rd=8, rs=0, imm=1),
        Instruction(Op.BEQ, rs=8, rt=0, imm=0x5000),
        Instruction(Op.HALT),
    ])
    findings = lint_program(build_cfg(program))
    bad = [f for f in findings if f.rule == "bad-branch-target"]
    assert len(bad) == 1
    assert bad[0].severity == "error"
    assert bad[0].pc == program.text_base + 4
    assert "out-of-text" in bad[0].message
    assert f"{program.text_base + 4:#x}" in bad[0].render()


def test_misaligned_target_is_distinguished():
    program = Program(instructions=[
        Instruction(Op.BEQ, rs=0, rt=0, imm=6),
        Instruction(Op.HALT),
        Instruction(Op.HALT),
    ])
    findings = lint_program(build_cfg(program))
    bad = [f for f in findings if f.rule == "bad-branch-target"]
    assert len(bad) == 1 and "misaligned" in bad[0].message


def test_undefined_read_error():
    findings = lint_program(build_cfg(assemble("""
main:
    add  $t1, $t0, $zero
    halt
""")))
    undefined = [f for f in findings if f.rule == "undefined-read"]
    assert len(undefined) == 1
    assert undefined[0].severity == "error"
    assert "$t0" in undefined[0].message


def test_undefined_read_respects_joins():
    """A register defined on only one path into a read still has a
    reaching definition — may-analysis, not must — so no finding."""
    findings = lint_program(build_cfg(assemble("""
main:
    addi $t0, $zero, 1
    beq  $t0, $zero, skip
    addi $t1, $zero, 2
skip:
    add  $t2, $t1, $zero
    halt
""")))
    assert "undefined-read" not in _rules(findings)


def test_all_workloads_are_lint_clean():
    """The gate: zero lint findings of either severity on every
    registered workload. ``repro analyze`` fails on errors only; this
    test is what holds the warnings at zero too."""
    config = SimConfig.paper()
    for name in workloads.names():
        report = analyze_program(workloads.build(name, 0.2), name, config)
        assert report.lint_errors() == [], name
        assert report.lint_warnings() == [], name
