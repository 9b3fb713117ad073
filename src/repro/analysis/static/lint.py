"""Workload lint: structural sanity checks over the static CFG.

Six rules, each an honest whole-program property of the assembled
image (no execution involved):

* ``bad-branch-target`` (error) — a direct branch or jump whose target
  lies outside the text segment or off instruction alignment.
* ``undefined-read`` (error) — a register read with *no* reaching
  definition on any CFG path from entry (the loader only initialises
  ``$zero``/``$gp``/``$sp``). Because the CFG over-approximates paths,
  extra edges can only *add* definitions: a report here is a
  definition-free read on every real path too.
* ``unreachable-block`` (warning) — a block no over-approximate path
  from entry reaches. Warning severity: dead code is suspicious in a
  tuned synthetic workload but breaks nothing.
* ``dead-write`` (warning) — a register written but never live
  afterwards. Warning severity: the over-approximate CFG *under*\\-
  states deadness never, but ABI-style bookkeeping (saving a register
  that is only conditionally reused) is legitimate.

Two more rules read the call graph
(:func:`repro.analysis.static.callgraph.build_call_graph`):

* ``unreachable-function`` (warning) — a discovered function entry no
  chain of call edges from the program entry reaches. The call edges
  over-approximate (unresolved indirect calls edge everywhere), so a
  report means *no* real path can call the function either.
* ``missing-return`` (warning) — a function whose CFG can fall off the
  end of its extent into the following function: control arrives at
  the next function without any call. Usually a forgotten ``jr $ra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.static.callgraph import CallGraph, build_call_graph
from repro.analysis.static.cfg import ControlFlowGraph
from repro.analysis.static.dataflow import (
    Liveness,
    ReachingDefinitions,
    instr_uses,
    solve,
)
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
    reachable = cfg.reachable()
    findings.extend(_unreachable_blocks(cfg, reachable))
    findings.extend(_undefined_reads(cfg, reachable))
    findings.extend(_dead_writes(cfg, reachable))
    call_graph = build_call_graph(cfg)
    findings.extend(_unreachable_functions(call_graph))
    findings.extend(_missing_returns(call_graph))
    findings.sort(key=lambda f: (f.pc if f.pc is not None else -1, f.rule))
    return findings


def lint_counts(findings: List[LintFinding],
                severity: Optional[str] = None) -> Dict[str, int]:
    """Per-rule finding counts (the CI baseline's unit of regression),
    optionally restricted to one severity."""
    counts: Dict[str, int] = {}
    for finding in findings:
        if severity is not None and finding.severity != severity:
            continue
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def _bad_branch_targets(cfg: ControlFlowGraph) -> List[LintFinding]:
    out = []
    for pc, target in cfg.bad_targets:
        kind = ("misaligned" if target % 4 else "out-of-text")
        out.append(LintFinding(
            rule="bad-branch-target", severity=ERROR, pc=pc,
            message=f"transfer targets {target:#x} ({kind})"))
    return out


def _unreachable_blocks(cfg: ControlFlowGraph,
                        reachable: set) -> List[LintFinding]:
    out = []
    for block in cfg.blocks:
        if block.index not in reachable:
            out.append(LintFinding(
                rule="unreachable-block", severity=WARNING,
                pc=block.start,
                message=f"{len(block.instrs)}-instruction block is "
                        f"unreachable from entry"))
    return out


def _undefined_reads(cfg: ControlFlowGraph,
                     reachable: set) -> List[LintFinding]:
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


def _dead_writes(cfg: ControlFlowGraph,
                 reachable: set) -> List[LintFinding]:
    liveness = solve(cfg, Liveness())
    out = []
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        values = liveness.instr_values(block.index)
        for instr, live_after in zip(block.instrs, values):
            dest = instr.dest()
            if dest is None or (live_after >> dest) & 1:
                continue
            out.append(LintFinding(
                rule="dead-write", severity=WARNING, pc=instr.pc,
                message=f"writes ${reg_name(dest)} but the value is "
                        f"never read"))
    return out


def _unreachable_functions(call_graph: CallGraph) -> List[LintFinding]:
    reachable = call_graph.reachable()
    out = []
    for entry, info in call_graph.functions.items():
        if entry not in reachable:
            out.append(LintFinding(
                rule="unreachable-function", severity=WARNING,
                pc=entry,
                message=f"function {info.name} is never called from "
                        f"the program entry"))
    return out


def _missing_returns(call_graph: CallGraph) -> List[LintFinding]:
    out = []
    for entry, info in call_graph.functions.items():
        for pc in info.fall_off:
            out.append(LintFinding(
                rule="missing-return", severity=WARNING, pc=pc,
                message=f"function {info.name} can fall off its end "
                        f"into the next function"))
    return out


__all__ = ["ERROR", "WARNING", "LintFinding", "lint_counts",
           "lint_program"]
