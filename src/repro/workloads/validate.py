"""Workload fingerprint validation.

Each synthetic benchmark is built to a target optimization-opportunity
profile (the paper's Table 2). This module measures a benchmark's
*achieved* dynamic fingerprint — both statically (idiom counts over the
committed stream) and dynamically (transformed-instruction coverage
under the combined optimizations) — and scores it against the target.

Used by the test suite to pin the generators against drift, by
``repro validate``, and available to users adding their own
workloads::

    from repro.workloads.validate import validate_benchmark
    report = validate_benchmark("m88ksim", scale=0.5)
    print(report.render())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import move_source
from repro.isa.opcodes import Op
from repro.machine.executor import Executor
from repro import workloads


@dataclass
class StaticFingerprint:
    """Idiom densities over the committed stream (fractions)."""

    instructions: int
    moves: float              # detectable register-move idioms
    short_shifts: float       # sll by 1-3 (scaled-add feeders)
    chainable_addi: float     # addi with rd != rs (reassociation grist)
    loads: float
    stores: float
    cond_branches: float
    calls: float
    indirect: float


@dataclass
class ValidationReport:
    """Measured vs target profile for one benchmark."""

    benchmark: str
    static: StaticFingerprint
    coverage: dict            # measured Table-2 percentages
    target: dict              # the paper's Table-2 percentages
    improvement: float        # combined-optimization IPC gain, percent

    @property
    def coverage_ratios(self) -> dict:
        """measured / target per category (1.0 = on target)."""
        out = {}
        for key in ("moves", "reassoc", "scaled", "total"):
            target = self.target[key]
            out[key] = (self.coverage[key] / target) if target else None
        return out

    def within(self, factor: float = 3.0,
               floor_pct: float = 1.0) -> bool:
        """True when every nonzero-target category is within *factor*
        of the paper's value (categories under *floor_pct* in the paper
        are noise-level and exempt)."""
        for key in ("moves", "reassoc", "scaled", "total"):
            target = self.target[key]
            if target < floor_pct:
                continue
            measured = self.coverage[key]
            if measured == 0 or not (target / factor
                                     <= measured
                                     <= target * factor):
                return False
        return True

    def render(self) -> str:
        lines = [f"{self.benchmark}: {self.static.instructions} committed "
                 f"instructions, combined gain {self.improvement:+.1f}%"]
        for key in ("moves", "reassoc", "scaled", "total"):
            ratio = self.coverage_ratios[key]
            ratio_text = f"x{ratio:.2f}" if ratio is not None else "  - "
            lines.append(f"  {key:8s} measured {self.coverage[key]:5.1f}%"
                         f"  target {self.target[key]:5.1f}%  {ratio_text}")
        lines.append(f"  static: moves {100 * self.static.moves:.1f}% "
                     f"shifts {100 * self.static.short_shifts:.1f}% "
                     f"addi {100 * self.static.chainable_addi:.1f}% "
                     f"loads {100 * self.static.loads:.1f}% "
                     f"branches {100 * self.static.cond_branches:.1f}%")
        return "\n".join(lines)


def static_fingerprint(trace) -> StaticFingerprint:
    """Measure the idiom densities of a committed trace."""
    total = len(trace)
    counts = dict(moves=0, shifts=0, addi=0, loads=0, stores=0,
                  branches=0, calls=0, indirect=0)
    for record in trace:
        instr = record.instr
        if move_source(instr) is not None:
            counts["moves"] += 1
        if instr.op is Op.SLL and 1 <= (instr.imm or 0) <= 3:
            counts["shifts"] += 1
        if instr.op is Op.ADDI and instr.rd not in (0, instr.rs):
            counts["addi"] += 1
        if instr.is_load():
            counts["loads"] += 1
        elif instr.is_store():
            counts["stores"] += 1
        if instr.is_cond_branch():
            counts["branches"] += 1
        if instr.is_call():
            counts["calls"] += 1
        if instr.is_indirect() and not instr.is_return():
            counts["indirect"] += 1
    return StaticFingerprint(
        instructions=total,
        moves=counts["moves"] / total,
        short_shifts=counts["shifts"] / total,
        chainable_addi=counts["addi"] / total,
        loads=counts["loads"] / total,
        stores=counts["stores"] / total,
        cond_branches=counts["branches"] / total,
        calls=counts["calls"] / total,
        indirect=counts["indirect"] / total,
    )


def validate_benchmark(name: str, scale: float = 0.3,
                       trace=None) -> ValidationReport:
    """Measure *name* and score it against its Table-2 target.

    Raises:
        KeyError: for unknown benchmark names.
    """
    spec = workloads.spec(name)
    if trace is None:
        trace = Executor(workloads.build(name, scale)).run()
    baseline = Engine(SimConfig.paper()).run(trace, name, "base")
    optimized = Engine(
        SimConfig.paper(OptimizationConfig.all())).run(trace, name, "all")
    target_row = spec.paper_table2
    return ValidationReport(
        benchmark=name,
        static=static_fingerprint(trace),
        coverage=optimized.coverage.as_percentages(optimized.instructions),
        target={"moves": target_row.moves, "reassoc": target_row.reassoc,
                "scaled": target_row.scaled, "total": target_row.total},
        improvement=optimized.improvement_over(baseline),
    )


__all__ = ["StaticFingerprint", "ValidationReport",
           "static_fingerprint", "validate_benchmark"]
