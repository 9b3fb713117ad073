"""The segment verifier: lint rules + translation validation.

:class:`SegmentVerifier` is what the fill unit's pass manager runs
after each pass under ``SimConfig.verify_fill`` (``repro run BENCH
--verify``), and its :class:`VerificationReport` is what ``run
--verify`` prints. ``check()`` takes the segment's snapshot from before
one pass, the segment that pass rewrote, and the pass's name and
mutation surface, and judges only what the pass changed: the entries
that differ from the snapshot's in any field but the ``decoded``
cache, and the slots and branch records. Each violation names the
pass, most precise diagnosis first: the structural lint rules run
first, and the symbolic equivalence check then skips divergences a
structural violation already explains, so one defect is reported by
exactly one rule. A rewrite that changed no entry and no branch record
(placement, or a pass that found nothing to do) skips the equivalence
check: it cannot differ. One that changed nothing at all gets only the
move pass's ``unmarked-move`` walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.fillunit.opts.base import OptimizationConfig
from repro.tracecache.segment import TraceSegment
from repro.verify.equivalence import check_equivalence
from repro.verify.rules import (ERROR, STRUCTURAL, RuleInput, Violation,
                                _check_unmarked_move, order_violation)


#: error violations a report keeps whole, for ``render`` to show
SAMPLES = 5


@dataclass
class VerificationReport:
    """Accumulated verification outcomes across many segments."""

    segments_checked: int = 0
    segments_clean: int = 0
    #: ``{(pass, rule): count}`` for error severities.
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
            key = (violation.pass_name, violation.rule)
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
                         f"[{v.pass_name}] {v.rule}: "
                         f"{v.message}")
        return "\n".join(lines)


class SegmentVerifier:
    """Static translation validator for fill-unit rewrites."""

    def __init__(self, config: OptimizationConfig) -> None:
        self.config = config
        #: what the fill unit accounts for each installed segment
        self.report = VerificationReport()

    def check(self, original: TraceSegment, optimized: TraceSegment,
              pass_name: str, surface: frozenset) -> List[Violation]:
        """Verify pass *pass_name*'s rewrite of *original* (its
        snapshot) into *optimized*, against the pass's declared
        mutation *surface*; returns every violation found."""
        changed = [idx for idx, (old, new) in enumerate(
            zip(original.instrs, optimized.instrs)) if new != old]
        inp = RuleInput(original, optimized, self.config, pass_name,
                        surface, changed)
        reordered = order_violation(inp)
        if reordered is not None:
            return [reordered]
        branched = optimized.branches != original.branches
        if not (changed or branched
                or optimized.slots != original.slots):
            return list(_check_unmarked_move(inp))
        violations = [v for rule in STRUCTURAL for v in rule(inp)]
        if changed or branched:
            suppressed = {v.index for v in violations
                          if v.severity == ERROR and v.index is not None}
            violations += check_equivalence(original, optimized,
                                            pass_name, suppressed)
        return violations


__all__ = ["SegmentVerifier", "VerificationReport"]
