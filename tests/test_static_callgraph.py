"""Function extents, discovered from calls, and the missing-return
lint."""

from repro.analysis.static.cfg import build_cfg
from repro.analysis.static.functions import find_functions
from repro.analysis.static.lint import lint_program
from repro.asm import assemble
from repro.machine.executor import Executor

CALLS = """
main:
    jal  helper
    jal  helper
    li   $v0, 10
    syscall
    halt
helper:
    addi $t0, $t0, 1
    jr   $ra
"""

FALLS_OFF = """
main:
    jal  leaky
    jal  sink
    li   $v0, 10
    syscall
    halt
leaky:
    addi $t0, $t0, 1
sink:
    jr   $ra
"""

#: two functions, each ending in its return
RETURNS = """
main:
    li   $t0, 1
    jal  inc
    jal  dbl
    halt
inc:
    addi $t0, $t0, 1
    jr   $ra
dbl:
    add  $t0, $t0, $t0
    jr   $ra
"""


def _functions(src):
    cfg = build_cfg(assemble(src))
    return cfg, find_functions(cfg)


def test_direct_calls_resolved():
    cfg, functions = _functions(CALLS)
    helper = cfg.program.symbols["helper"]
    main = cfg.program.symbols["main"]
    assert set(functions) == {main, helper}
    assert functions[main].end == helper
    assert functions[helper].end == cfg.program.text_end
    assert functions[helper].name == "helper"
    assert not any(info.fall_off for info in functions.values())


def test_containing_maps_pcs_to_extents():
    """Every text pc lies in exactly one function's extent: the one
    whose entry is the last at or before it."""
    cfg, functions = _functions(CALLS)
    helper = cfg.program.symbols["helper"]
    main = cfg.program.symbols["main"]
    for instr in cfg.program.instructions:
        owners = [entry for entry, info in functions.items()
                  if entry <= instr.pc < info.end]
        assert owners == [helper if instr.pc >= helper else main]


def test_missing_return_lint():
    cfg, functions = _functions(FALLS_OFF)
    leaky = cfg.program.symbols["leaky"]
    info = functions[leaky]
    assert info.fall_off
    findings = lint_program(cfg)
    assert any(f.rule == "missing-return"
               and info.entry <= f.pc < info.end
               for f in findings)


def test_missing_return_runs_to_a_normal_halt():
    """A function missing its ``jr $ra`` slides into the next one and
    returns from there, so the program still halts normally (one
    record longer); the lint is what reports it, and only it."""
    broken = RETURNS.replace("    addi $t0, $t0, 1\n    jr   $ra\n",
                             "    addi $t0, $t0, 1\n")
    lengths = {}
    for name, src in (("returns", RETURNS), ("broken", broken)):
        program = assemble(src)
        executor = Executor(program)
        lengths[name] = len(executor.run().records)
        assert executor.halted
    assert lengths == {"returns": 8, "broken": 9}
    assert lint_program(build_cfg(assemble(RETURNS))) == []
    findings = lint_program(build_cfg(assemble(broken)))
    assert [(f.rule, f.message) for f in findings] == [
        ("missing-return",
         "function inc can fall off its end into the next function")]


def test_indirect_call_with_zero_label_candidates():
    # A jalr names no entry of its own: with no direct call, the
    # program is the root function alone.
    cfg, functions = _functions("""
main:
    la   $t0, main
    jalr $ra, $t0
    halt
""")
    main = cfg.program.symbols["main"]
    assert set(functions) == {main}
    assert functions[main].end == cfg.program.text_end
