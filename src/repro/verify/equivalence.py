"""Translation validation for optimized trace segments.

Proves — per pass, without executing anything — that the segment a
pass rewrote is equivalent to its snapshot from before the pass, along
the embedded path (equivalence is transitive, so a segment whose every
pass checks clean is equivalent to its unoptimized original):

* ``equiv-registers``: every register either side writes must hold a
  symbolically identical final value (a register only the original
  writes was deleted; only the optimized writes, fabricated);
* ``equiv-memory``: the ordered store log must match record for record
  (width, address term, value term) — loads are validated implicitly,
  because a moved or rewritten load changes the terms that flow into
  registers and stores;
* ``equiv-branches``: every branch present in both segments (paired by
  PC) must test a symbolically identical condition.

Structural lint violations already explain some divergences (a squashed
live instruction both breaks ``def-before-use`` and perturbs the final
register state); the caller passes the offending instruction indices in
*suppressed* so each defect is reported once, by its most precise rule.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional

from repro.tracecache.segment import TraceSegment
from repro.verify.rules import SEVERITY, Violation
from repro.verify.symbolic import (
    BranchCondition,
    SymbolicState,
    evaluate_segment,
    render_term,
    written_registers,
)


def _violation(rule_id: str, index: Optional[int], message: str,
               pass_name: str) -> Violation:
    return Violation(rule_id, SEVERITY[rule_id], message, pass_name,
                     index)


def _compare_registers(original: TraceSegment, optimized: TraceSegment,
                       orig_state: SymbolicState,
                       opt_state: SymbolicState,
                       suppressed: AbstractSet[int],
                       pass_name: str) -> List[Violation]:
    orig_writers = written_registers(original)
    opt_writers = written_registers(optimized)
    found: List[Violation] = []
    for reg in sorted(set(orig_writers) | set(opt_writers)):
        before = orig_state.final_value(reg)
        after = opt_state.final_value(reg)
        if before == after:
            continue
        writer_o = orig_writers.get(reg)
        writer_n = opt_writers.get(reg)
        if writer_o in suppressed or writer_n in suppressed:
            continue
        found.append(_violation(
            "equiv-registers", writer_n if writer_n is not None
            else writer_o,
            f"live-out r{reg} diverged: original "
            f"{render_term(before)}, optimized {render_term(after)}",
            pass_name))
    return found


def _compare_memory(orig_state: SymbolicState,
                    opt_state: SymbolicState,
                    suppressed: AbstractSet[int],
                    order_already_reported: bool,
                    pass_name: str) -> List[Violation]:
    found: List[Violation] = []
    if len(orig_state.stores) != len(opt_state.stores):
        if not order_already_reported:
            found.append(_violation(
                "equiv-memory", None,
                f"store count changed: {len(orig_state.stores)} -> "
                f"{len(opt_state.stores)}", pass_name))
        return found
    for pos, (before, after) in enumerate(
            zip(orig_state.stores, opt_state.stores)):
        if before.index in suppressed or after.index in suppressed:
            continue
        if before.width != after.width:
            found.append(_violation(
                "equiv-memory", after.index,
                f"store #{pos} width changed "
                f"({before.width} -> {after.width})", pass_name))
        elif before.address != after.address:
            found.append(_violation(
                "equiv-memory", after.index,
                f"store #{pos} address diverged: "
                f"{render_term(before.address)} vs "
                f"{render_term(after.address)}", pass_name))
        elif before.value != after.value:
            found.append(_violation(
                "equiv-memory", after.index,
                f"store #{pos} value diverged: "
                f"{render_term(before.value)} vs "
                f"{render_term(after.value)}", pass_name))
    return found


def _compare_branches(orig_state: SymbolicState,
                      opt_state: SymbolicState,
                      suppressed: AbstractSet[int],
                      pass_name: str) -> List[Violation]:
    # Pair by instruction index: a surviving branch keeps its position
    # (branch-preserved enforces that), and a segment may embed the
    # same branch PC twice, so PC alone cannot pair records.
    before_map: Dict[int, BranchCondition] = {
        b.index: b for b in orig_state.branches}
    found: List[Violation] = []
    for after in opt_state.branches:
        before = before_map.get(after.index)
        if before is None or before.pc != after.pc \
                or after.index in suppressed \
                or before.index in suppressed:
            continue           # missing/extra records: branch-preserved
        if (before.condition, before.taken_iff) != \
                (after.condition, after.taken_iff):
            found.append(_violation(
                "equiv-branches", after.index,
                f"branch at {after.pc:#x} condition diverged: "
                f"{render_term(before.condition)} vs "
                f"{render_term(after.condition)}", pass_name))
    return found


def check_equivalence(original: TraceSegment, optimized: TraceSegment,
                      pass_name: str,
                      suppressed: AbstractSet[int] = frozenset(),
                      order_already_reported: bool = False
                      ) -> List[Violation]:
    """Validate *pass_name*'s rewrite of *original* into *optimized*;
    returns the violations, each naming the pass."""
    orig_state = evaluate_segment(original)
    opt_state = evaluate_segment(optimized,
                                 assumptions=orig_state.assumptions)
    violations = _compare_registers(original, optimized, orig_state,
                                    opt_state, suppressed, pass_name)
    violations += _compare_memory(orig_state, opt_state, suppressed,
                                  order_already_reported, pass_name)
    violations += _compare_branches(orig_state, opt_state, suppressed,
                                    pass_name)
    return violations


__all__ = ["check_equivalence"]
