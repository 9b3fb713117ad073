"""Metamorphic relations: the timing model is invariant where it must be.

A pinned cycle count checks only the inputs it was pinned on; a
relation between two runs needs no pin. Renaming the architected
registers of a program is one: the machine has no register-specific
timing (rename maps every register alike, and the fill unit's passes
key on dataflow, not on register numbers), so a program whose
registers are permuted must take the same cycles, count the same
telemetry and attribute its cycles the same way as the original.

The permutation fixes the registers the machine itself names: r0
(hardwired zero, which move detection keys on), v0 and a0 (the
syscall number and argument), sp (set by the loader) and ra (written
by ``jal``).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.registers import NUM_REGS, reg_number
from repro.machine.executor import Executor
from repro.program.image import Program

#: registers the machine names itself, which a permutation must fix
FIXED = tuple(reg_number(name) for name in ("zero", "v0", "a0", "sp", "ra"))

OPTS = {
    "none": OptimizationConfig.none,
    "all": OptimizationConfig.all,
    "extended": OptimizationConfig.extended,
}
SEEDS = (1, 2)
SCALE = 0.1


def permutation(seed: int) -> list:
    """A register map that moves every register outside :data:`FIXED`."""
    free = [reg for reg in range(NUM_REGS) if reg not in FIXED]
    shuffled = list(free)
    random.Random(seed).shuffle(shuffled)
    mapping = list(range(NUM_REGS))
    for old, new in zip(free, shuffled):
        mapping[old] = new
    return mapping


def renamed(program: Program, mapping: list) -> Program:
    """*program* with every register operand renamed by *mapping*."""
    def rename(reg):
        return None if reg is None else mapping[reg]
    instructions = [dataclasses.replace(instr, rd=rename(instr.rd),
                                        rs=rename(instr.rs),
                                        rt=rename(instr.rt))
                    for instr in program.instructions]
    return Program(instructions=instructions,
                   text_base=program.text_base,
                   data=bytearray(program.data),
                   data_base=program.data_base,
                   symbols=dict(program.symbols), entry=program.entry,
                   name=program.name)


def observed(program: Program, opts: str):
    """What the relation compares: cycles, telemetry and attribution."""
    config = SimConfig.paper(OPTS[opts]())
    result = Engine(config).run(Executor(program).run())
    return result.cycles, result.telemetry, result.attribution


_ORIGINALS: dict = {}


def original(bench: str, opts: str):
    key = (bench, opts)
    if key not in _ORIGINALS:
        _ORIGINALS[key] = observed(workloads.build(bench, SCALE), opts)
    return _ORIGINALS[key]


def test_permutation_moves_every_free_register():
    for seed in SEEDS:
        mapping = permutation(seed)
        assert sorted(mapping) == list(range(NUM_REGS))
        assert all(mapping[reg] == reg for reg in FIXED)
        assert sum(mapping[reg] != reg for reg in range(NUM_REGS)) > 20


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("opts", list(OPTS))
@pytest.mark.parametrize("bench", workloads.names())
def test_register_permutation_is_invisible(bench, opts, seed):
    program = renamed(workloads.build(bench, SCALE), permutation(seed))
    cycles, telemetry, attribution = observed(program, opts)
    expected = original(bench, opts)
    assert cycles == expected[0]
    assert telemetry == expected[1]
    assert attribution == expected[2]
