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

Relocating the code is another: every structure the machine indexes
by pc (trace cache, instruction cache, predictor and bias tables)
takes its index from the low pc bits, so moving the text section by a
multiple of every such span must not change a run either. Only the
evicting machine makes the relation bite: on the paper machine the
trace cache never evicts, so an index that scatters lines differently
still finds them all.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import workloads
from repro.asm.assembler import DEFAULT_TEXT_BASE
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.registers import NUM_REGS, reg_number
from repro.machine.executor import Executor
from repro.program.image import Program
from repro.workloads import builder
from tests.helpers import evicting_config

#: registers the machine names itself, which a permutation must fix
FIXED = tuple(reg_number(name) for name in ("zero", "v0", "a0", "sp", "ra"))

OPTS = {
    "none": OptimizationConfig.none,
    "all": OptimizationConfig.all,
    "extended": OptimizationConfig.extended,
}
SEEDS = (1, 2)
SCALE = 0.1
#: how far the relocation relation moves the text section: a multiple
#: of every pc-indexed span (L1I, trace cache, L2, PHT and bias tables)
SHIFT = 0x40000
#: (opts, trace-cache policy) of each relocated run: the paper machine
#: (policy None) and the evicting machine under each policy
RELOCATIONS = ([(opts, None) for opts in OPTS]
               + [(opts, policy) for opts in ("none", "all")
                  for policy in ("lru", "srrip", "trrip")])


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


def observed(program: Program, opts: str, policy=None):
    """What the relations compare: cycles, telemetry and attribution,
    on the paper machine or (with a *policy*) the evicting one."""
    config = (SimConfig.paper(OPTS[opts]()) if policy is None
              else evicting_config(OPTS[opts](), policy))
    result = Engine(config).run(Executor(program).run())
    return result.cycles, result.telemetry, result.attribution


_ORIGINALS: dict = {}


def original(bench: str, opts: str, policy=None):
    key = (bench, opts, policy)
    if key not in _ORIGINALS:
        _ORIGINALS[key] = observed(workloads.build(bench, SCALE), opts,
                                   policy)
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


@pytest.mark.parametrize("opts,policy", RELOCATIONS)
@pytest.mark.parametrize("bench", workloads.names())
def test_code_relocation_is_invisible(bench, opts, policy, monkeypatch):
    expected = original(bench, opts, policy)
    assemble = builder.assemble
    monkeypatch.setattr(
        builder, "assemble",
        lambda source, name="a.out": assemble(
            source, name=name, text_base=DEFAULT_TEXT_BASE + SHIFT))
    program = workloads.build(bench, SCALE)
    assert program.text_base == DEFAULT_TEXT_BASE + SHIFT
    cycles, telemetry, attribution = observed(program, opts, policy)
    assert cycles == expected[0]
    assert telemetry == expected[1]
    assert attribution == expected[2]
