"""The segment verifier: lint rules + translation validation.

:class:`SegmentVerifier` is what the fill unit runs under
``SimConfig.verify_fill`` (``repro run BENCH --verify``), and its
:class:`VerificationReport` is what ``run --verify`` prints.
``check()`` takes a pre-rewrite snapshot and the rewritten segment and
returns every violation found, most precise diagnosis first: the
structural lint rules run first, and the symbolic equivalence check
then skips divergences a structural violation already explains, so one
defect is reported by exactly one rule. A rewrite that left every
entry and branch record as it was (no optimizations, or placement
alone) skips the equivalence check: it cannot differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fillunit.opts.base import OptimizationConfig
from repro.tracecache.segment import TraceSegment
from repro.verify.equivalence import check_equivalence
from repro.verify.rules import (
    ERROR,
    RuleInput,
    Violation,
    run_rules,
)


#: error violations a report keeps whole, for ``render`` to show
SAMPLES = 5


@dataclass
class VerificationReport:
    """Accumulated verification outcomes across many segments."""

    segments_checked: int = 0
    segments_clean: int = 0
    #: ``{(pass or "(pipeline)", rule): count}`` for error severities.
    violation_counts: Dict[Tuple[str, str], int] = field(
        default_factory=dict)
    warning_counts: Dict[Tuple[str, str], int] = field(
        default_factory=dict)
    #: the first :data:`SAMPLES` error violations, each with its
    #: segment's start pc
    samples: List[Tuple[int, Violation]] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return sum(self.violation_counts.values())

    @property
    def warnings(self) -> int:
        return sum(self.warning_counts.values())

    def record(self, violations: List[Violation], start_pc: int) -> None:
        """Count one checked segment, starting at *start_pc*."""
        self.segments_checked += 1
        errors = [v for v in violations if v.severity == ERROR]
        if not errors:
            self.segments_clean += 1
        room = SAMPLES - len(self.samples)
        self.samples += [(start_pc, v) for v in errors[:room]]
        for violation in violations:
            key = (violation.pass_name or "(pipeline)", violation.rule)
            counts = (self.violation_counts
                      if violation.severity == ERROR
                      else self.warning_counts)
            counts[key] = counts.get(key, 0) + 1

    def render(self) -> str:
        """One summary line ending in ``CLEAN`` or ``N violations``,
        then, when anything was found, the pass x rule x severity
        table and the sample error violations."""
        status = (f"{self.violations} violations" if self.violations
                  else "CLEAN")
        lines = [f"segments checked: {self.segments_checked}   "
                 f"clean: {self.segments_clean}   "
                 f"violations: {self.violations}   "
                 f"warnings: {self.warnings} -> {status}"]
        if self.violation_counts or self.warning_counts:
            lines.append(f"  {'pass':12s} {'rule':20s} "
                         f"{'severity':8s} {'count':>5s}")
            merged = [(key, count, ERROR)
                      for key, count in self.violation_counts.items()]
            merged += [(key, count, "warning")
                       for key, count in self.warning_counts.items()]
            for (pass_name, rule_id), count, severity in sorted(merged):
                lines.append(f"  {pass_name:12s} {rule_id:20s} "
                             f"{severity:8s} {count:5d}")
        for start_pc, v in self.samples:
            lines.append(f"    e.g. pc={start_pc:#x} "
                         f"[{v.pass_name or '(pipeline)'}] {v.rule}: "
                         f"{v.message}")
        return "\n".join(lines)


def _unchanged(original: TraceSegment, optimized: TraceSegment) -> bool:
    """Whether *optimized* holds *original*'s entries field for field
    and its branch records. The symbolic evaluations of the two would
    then be identical, so the equivalence check could find nothing.
    Slots are not compared: placement changes only slots, and the
    evaluator reads none."""
    return (len(optimized.instrs) == len(original.instrs)
            and optimized.branches == original.branches
            and all(new.__dict__ == old.__dict__ for new, old
                    in zip(optimized.instrs, original.instrs)))


class SegmentVerifier:
    """Static translation validator for fill-unit rewrites."""

    def __init__(self, config: Optional[OptimizationConfig] = None
                 ) -> None:
        self.config = (config if config is not None
                       else OptimizationConfig())
        self.report = VerificationReport()

    def check(self, original: TraceSegment, optimized: TraceSegment,
              pass_name: Optional[str] = None,
              surface: Optional[frozenset] = None,
              record: bool = True) -> List[Violation]:
        """Verify one rewrite; returns every violation found.

        *pass_name*/*surface* attribute violations to a single pass
        (per-pass mode); without them the check covers the whole
        pipeline. With *record*, outcomes accumulate in
        :attr:`report`.
        """
        inp = RuleInput(original=original, optimized=optimized,
                        config=self.config, pass_name=pass_name,
                        surface=surface)
        violations = run_rules(inp)
        if not _unchanged(original, optimized):
            suppressed = {v.index for v in violations
                          if v.severity == ERROR and v.index is not None}
            order_reported = any(v.rule == "mem-branch-order"
                                 for v in violations)
            semantic, _, _ = check_equivalence(
                original, optimized, suppressed=suppressed,
                order_already_reported=order_reported,
                pass_name=pass_name)
            violations += semantic
        if record:
            self.report.record(violations, optimized.start_pc)
        return violations


__all__ = ["SegmentVerifier", "VerificationReport"]
