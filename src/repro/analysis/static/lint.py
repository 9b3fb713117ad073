"""Workload lint: structural sanity checks over the static CFG.

Three rules, each an honest whole-program property of the assembled
image (no execution involved), and each a fault the functional
executor can run straight past:

* ``bad-branch-target`` (error) — a direct branch or jump whose target
  lies outside the text segment or off instruction alignment.
* ``undefined-read`` (error) — a register read with *no* reaching
  definition on any CFG path from entry (the loader only initialises
  ``$zero``/``$gp``/``$sp``). Because the CFG over-approximates paths,
  extra edges can only *add* definitions: a report here is a
  definition-free read on every real path too.
* ``missing-return`` (warning) — a function whose CFG can fall off the
  end of its extent (:func:`repro.analysis.static.functions.
  find_functions`) into the following function: control arrives at
  the next function without any call. Usually a forgotten ``jr $ra``,
  and a program missing one still runs to a normal halt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.static.cfg import ControlFlowGraph
from repro.analysis.static.dataflow import (
    ReachingDefinitions,
    instr_uses,
    solve,
)
from repro.analysis.static.functions import find_functions
from repro.isa.registers import reg_name

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnosis, anchored to an instruction address."""

    rule: str
    severity: str
    pc: Optional[int]
    message: str

    def render(self) -> str:
        where = f"{self.pc:#x}: " if self.pc is not None else ""
        return f"[{self.severity}] {where}{self.rule}: {self.message}"


def lint_program(cfg: ControlFlowGraph) -> List[LintFinding]:
    """Run every rule over *cfg*; findings sorted by address."""
    findings: List[LintFinding] = []
    findings.extend(_bad_branch_targets(cfg))
    findings.extend(_undefined_reads(cfg))
    findings.extend(_missing_returns(cfg))
    findings.sort(key=lambda f: (f.pc if f.pc is not None else -1, f.rule))
    return findings


def _bad_branch_targets(cfg: ControlFlowGraph) -> List[LintFinding]:
    out = []
    for pc, target in cfg.bad_targets:
        kind = ("misaligned" if target % 4 else "out-of-text")
        out.append(LintFinding(
            rule="bad-branch-target", severity=ERROR, pc=pc,
            message=f"transfer targets {target:#x} ({kind})"))
    return out


def _undefined_reads(cfg: ControlFlowGraph) -> List[LintFinding]:
    reachable = cfg.reachable()
    reaching = solve(cfg, ReachingDefinitions())
    out = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue                 # values there are vacuous
        values = reaching.instr_values(block.index)
        for instr, reach in zip(block.instrs, values):
            for reg in instr_uses(instr):
                if reg not in reach:
                    out.append(LintFinding(
                        rule="undefined-read", severity=ERROR,
                        pc=instr.pc,
                        message=f"reads ${reg_name(reg)} which no "
                                f"path defines"))
    return out


def _missing_returns(cfg: ControlFlowGraph) -> List[LintFinding]:
    out = []
    for info in find_functions(cfg).values():
        for pc in info.fall_off:
            out.append(LintFinding(
                rule="missing-return", severity=WARNING, pc=pc,
                message=f"function {info.name} can fall off its end "
                        f"into the next function"))
    return out


__all__ = ["ERROR", "WARNING", "LintFinding", "lint_program"]
