"""Structural lint rules for fill-unit rewrites.

Each rule is a *structural* invariant a pass must keep when it
rewrites a trace segment, independent of (and complementary to) the
symbolic equivalence check in :mod:`repro.verify.equivalence`. A rule
is a plain function of a :class:`RuleInput` (the segment before and
after one pass, the optimization configuration, and the pass's name
and declared mutation surface) that yields :class:`Violation` records
pointing at the offending instruction. :data:`STRUCTURAL` holds the
rules in the order they run; :data:`SEVERITY` gives every rule, the
three equivalence rules included, its severity.

``docs/verification.md`` is the rule catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import Instruction, move_source
from repro.isa.opcodes import Format, Op
from repro.isa.registers import ZERO_REG
from repro.tracecache.segment import TraceSegment

ERROR = "error"
WARNING = "warning"

#: every rule's severity, structural rules first, in the order they
#: run; only a missed optimization is a warning
SEVERITY: Dict[str, str] = {
    "def-before-use": ERROR,
    "move-marking": ERROR,
    "scale-shift-limit": ERROR,
    "scale-provenance": ERROR,
    "placement-order": ERROR,
    "mem-branch-order": ERROR,
    "branch-preserved": ERROR,
    "guard-sound": ERROR,
    "imm-encodable": ERROR,
    "pass-surface": ERROR,
    "unmarked-move": WARNING,
    "equiv-registers": ERROR,
    "equiv-memory": ERROR,
    "equiv-branches": ERROR,
}

_IMM_MIN, _IMM_MAX = -32768, 32767

#: Formats whose immediate field is architecturally 16 bits (signed).
_IMM16_FORMATS = (Format.R2I, Format.LOAD, Format.STORE,
                  Format.BR1, Format.BR2)

#: Per-instruction fields a pass may declare in its mutation surface.
_SURFACE_FIELDS = ("op", "rd", "rs", "rt", "imm", "move_flag",
                   "move_bypassed", "scale", "guard", "reassociated")

#: Fields no pass may ever touch (segment identity).
_IDENTITY_FIELDS = ("pc",)


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in an optimized segment."""

    rule: str
    severity: str
    message: str
    #: the optimization pass whose rewrite broke the invariant
    pass_name: str
    #: index of the offending instruction in the optimized segment
    #: (``None`` for segment-level violations).
    index: Optional[int] = None

    def render(self) -> str:
        where = f"[{self.index}]" if self.index is not None else "[seg]"
        return (f"{self.severity}: {self.rule} {where} "
                f"pass={self.pass_name}: {self.message}")


@dataclass
class RuleInput:
    """Everything a lint rule may inspect: one pass's rewrite."""

    original: TraceSegment
    optimized: TraceSegment
    config: OptimizationConfig
    pass_name: str
    #: the pass's declared mutation surface (field names it may change)
    surface: frozenset

    def violation(self, rule_id: str, index: Optional[int],
                  message: str) -> Violation:
        return Violation(rule_id, SEVERITY[rule_id], message,
                         self.pass_name, index)


def _squashed(original: Instruction, optimized: Instruction) -> bool:
    """True when a pass replaced *original* with a NOP."""
    return optimized.op is Op.NOP and original.op is not Op.NOP


def _check_def_before_use(inp: RuleInput) -> Iterator[Violation]:
    orig, opt = inp.original.instrs, inp.optimized.instrs
    orig_blocks = inp.original.block_ids
    opt_blocks = inp.optimized.block_ids
    for idx in range(min(len(orig), len(opt))):
        if not _squashed(orig[idx], opt[idx]):
            continue
        dest = orig[idx].dest()
        if dest is None:
            continue        # squashed branches are guard-sound's domain
        for later_idx in range(idx + 1, len(opt)):
            later = opt[later_idx]
            if dest in later.sources():
                yield inp.violation(
                    "def-before-use", idx,
                    f"squashed def of r{dest} is read by "
                    f"instruction [{later_idx}]")
                break
            if later.dest() == dest:
                if opt_blocks[later_idx] != orig_blocks[idx]:
                    yield inp.violation(
                        "def-before-use", idx,
                        f"squashed def of r{dest} is redefined only in "
                        f"a later checkpoint block; an early exit "
                        f"between them would observe the deleted value")
                break
        else:
            yield inp.violation(
                "def-before-use", idx,
                f"squashed def of r{dest} is live-out of the segment")


def _check_move_marking(inp: RuleInput) -> Iterator[Violation]:
    for idx, instr in enumerate(inp.optimized.instrs):
        if not instr.move_flag:
            continue
        if move_source(instr) is None:
            yield inp.violation(
                "move-marking", idx,
                f"{instr.op.value} is marked as a move but is not a "
                f"detectable move idiom")
        elif instr.guard is not None:
            yield inp.violation(
                "move-marking", idx,
                "marked move carries a guard annotation; rename-copy "
                "cannot execute conditionally")


def _check_scale_shift_limit(inp: RuleInput) -> Iterator[Violation]:
    limit = inp.config.max_scale_shift
    for idx, instr in enumerate(inp.optimized.instrs):
        if instr.scale is None:
            continue
        if not 1 <= instr.scale.shamt <= limit:
            yield inp.violation(
                "scale-shift-limit", idx,
                f"scaled operand shifts by {instr.scale.shamt} "
                f"(allowed 1..{limit})")


def _check_scale_provenance(inp: RuleInput) -> Iterator[Violation]:
    instrs = inp.optimized.instrs
    for idx, instr in enumerate(instrs):
        scale = instr.scale
        if scale is None:
            continue
        # The scaled slot replaces the architected rs operand: find the
        # latest in-segment definition of that register.
        producer_idx = None
        for j in range(idx - 1, -1, -1):
            if instrs[j].dest() == instr.rs:
                producer_idx = j
                break
        if producer_idx is None:
            yield inp.violation(
                "scale-provenance", idx,
                f"scaled operand replaces r{instr.rs}, which has no "
                f"in-segment shift producer")
            continue
        producer = instrs[producer_idx]
        if (producer.op is not Op.SLL or producer.move_flag
                or (producer.imm or 0) != scale.shamt
                or producer.rs != scale.src):
            yield inp.violation(
                "scale-provenance", idx,
                f"scaled operand claims r{scale.src} << {scale.shamt} "
                f"but r{instr.rs} was produced by "
                f"[{producer_idx}] {producer.op.value}")
            continue
        if producer.dest() == scale.src:
            yield inp.violation(
                "scale-provenance", idx,
                f"shift at [{producer_idx}] clobbers its own source "
                f"r{scale.src}")
            continue
        for k in range(producer_idx + 1, idx):
            if instrs[k].dest() == scale.src:
                yield inp.violation(
                    "scale-provenance", idx,
                    f"scale source r{scale.src} is redefined at [{k}] "
                    f"between the shift and the scaled use")
                break


def _check_placement_order(inp: RuleInput) -> Iterator[Violation]:
    orig, opt = inp.original, inp.optimized
    if len(opt.instrs) != len(orig.instrs):
        yield inp.violation(
            "placement-order", None,
            f"segment length changed from {len(orig.instrs)} to "
            f"{len(opt.instrs)}")
        return
    if sorted(opt.slots) != list(range(len(opt.instrs))):
        yield inp.violation(
            "placement-order", None,
            f"slot assignment {opt.slots} is not a permutation of "
            f"0..{len(opt.instrs) - 1}")
    for idx in range(len(opt.instrs)):
        if opt.instrs[idx].pc != orig.instrs[idx].pc:
            yield inp.violation(
                "placement-order", idx,
                f"logical order permuted: position {idx} now holds "
                f"the instruction at {opt.instrs[idx].pc:#x}, not "
                f"{orig.instrs[idx].pc:#x}")
            return


def _check_mem_branch_order(inp: RuleInput) -> Iterator[Violation]:
    def kind(instr: Instruction) -> Optional[str]:
        if instr.is_load():
            return "load"
        if instr.is_store():
            return "store"
        if instr.is_ctrl():
            return "ctrl"
        return None

    orig, opt = inp.original.instrs, inp.optimized.instrs
    orig_proj = []
    for idx, instr in enumerate(orig):
        k = kind(instr)
        if k is None:
            continue
        # A conditional branch squashed by predication legitimately
        # disappears from the stream (guard-sound vets the conversion).
        if (k == "ctrl" and instr.is_cond_branch()
                and idx < len(opt) and opt[idx].op is Op.NOP):
            continue
        orig_proj.append((k, instr.pc))
    opt_proj = [(kind(i), i.pc) for i in opt if kind(i) is not None]
    if orig_proj == opt_proj:
        return
    for pos in range(max(len(orig_proj), len(opt_proj))):
        before = orig_proj[pos] if pos < len(orig_proj) else None
        after = opt_proj[pos] if pos < len(opt_proj) else None
        if before != after:
            yield inp.violation(
                "mem-branch-order", None,
                f"memory/control sequence diverges at position {pos}: "
                f"expected {before}, found {after}")
            return


def _check_branch_preserved(inp: RuleInput) -> Iterator[Violation]:
    orig, opt = inp.original, inp.optimized
    # Pair records positionally (a segment may embed the same branch
    # PC twice — an unrolled loop body — so PC alone is ambiguous).
    # Records are in segment order; a conversion only ever *removes*
    # records, so a cursor walk recovers the pairing.
    cursor = 0
    matched = [False] * len(opt.branches)
    for ob in orig.branches:
        nb = None
        if (cursor < len(opt.branches)
                and opt.branches[cursor].pc == ob.pc):
            nb = opt.branches[cursor]
            matched[cursor] = True
            cursor += 1
        o_instr = orig.instrs[ob.index]
        if nb is None:
            ok = (ob.index < len(opt.instrs)
                  and opt.instrs[ob.index].op is Op.NOP)
            if ok:
                # Predication-shaped removal: the body right after the
                # squashed branch is guarded (guard-sound vets the
                # guard's register and sense precisely — checking them
                # here too would double-report one defect).
                follower = (opt.instrs[ob.index + 1]
                            if ob.index + 1 < len(opt.instrs) else None)
                ok = follower is not None and follower.guard is not None
            if not ok:
                yield inp.violation(
                    "branch-preserved", ob.index,
                    f"branch at {ob.pc:#x} lost its record without a "
                    f"matching predication conversion")
            continue
        n_instr = opt.instrs[nb.index]
        if (nb.index != ob.index or not n_instr.is_cond_branch()
                or n_instr.op is not o_instr.op
                or n_instr.imm != o_instr.imm
                or nb.direction != ob.direction
                or nb.promoted != ob.promoted):
            yield inp.violation(
                "branch-preserved", nb.index,
                f"branch at {ob.pc:#x} was altered "
                f"(op/displacement/record fields must be preserved)")
    for pos, nb in enumerate(opt.branches):
        if not matched[pos]:
            yield inp.violation(
                "branch-preserved", nb.index,
                f"fabricated branch record at {nb.pc:#x}")


def _check_guard_sound(inp: RuleInput) -> Iterator[Violation]:
    orig, opt = inp.original.instrs, inp.optimized.instrs
    for idx, instr in enumerate(opt):
        guard = instr.guard
        if guard is None:
            continue
        if idx < len(orig) and orig[idx].guard is not None:
            continue                     # guard predates this rewrite
        if (instr.dest() is None or instr.is_mem() or instr.is_ctrl()
                or instr.is_serializing()):
            yield inp.violation(
                "guard-sound", idx,
                f"guard on {instr.op.value}, which is not a simple "
                f"ALU instruction with a destination")
            continue
        branch = orig[idx - 1] if 0 < idx <= len(orig) else None
        if (branch is None or branch.op not in (Op.BEQ, Op.BNE)
                or branch.rt != ZERO_REG or branch.imm != 8
                or opt[idx - 1].op is not Op.NOP):
            yield inp.violation(
                "guard-sound", idx,
                "guard does not correspond to a squashed single-slot "
                "BEQ/BNE-vs-zero hammock immediately before it")
            continue
        if branch.rs != guard.reg:
            yield inp.violation(
                "guard-sound", idx,
                f"guard reads r{guard.reg} but the squashed branch "
                f"tested r{branch.rs}")
            continue
        if guard.execute_if_zero != (branch.op is Op.BNE):
            yield inp.violation(
                "guard-sound", idx,
                f"guard sense inverted: {branch.op.value} skips its "
                f"body when the condition holds, so execute_if_zero "
                f"must be {branch.op is Op.BNE}")


def _check_imm_encodable(inp: RuleInput) -> Iterator[Violation]:
    for idx, instr in enumerate(inp.optimized.instrs):
        if instr.op is Op.NOP or instr.imm is None:
            continue
        fmt = instr.format
        if fmt in _IMM16_FORMATS:
            if not _IMM_MIN <= instr.imm <= _IMM_MAX:
                yield inp.violation(
                    "imm-encodable", idx,
                    f"immediate {instr.imm} does not fit the 16-bit "
                    f"signed field of {instr.op.value}")
        elif fmt is Format.SHIFT:
            if not 0 <= instr.imm <= 31:
                yield inp.violation(
                    "imm-encodable", idx,
                    f"shift amount {instr.imm} outside 0..31")


def _check_pass_surface(inp: RuleInput) -> Iterator[Violation]:
    surface = inp.surface
    orig, opt = inp.original, inp.optimized
    if len(opt.instrs) == len(orig.instrs):
        for idx in range(len(opt.instrs)):
            o, n = orig.instrs[idx], opt.instrs[idx]
            for name in _IDENTITY_FIELDS:
                if getattr(o, name) != getattr(n, name):
                    yield inp.violation(
                        "pass-surface", idx,
                        f"identity field {name!r} changed "
                        f"({getattr(o, name)!r} -> "
                        f"{getattr(n, name)!r})")
            if _squashed(o, n) and "squash" in surface:
                continue
            for name in _SURFACE_FIELDS:
                if getattr(o, name) == getattr(n, name):
                    continue
                if name not in surface:
                    yield inp.violation(
                        "pass-surface", idx,
                        f"field {name!r} changed "
                        f"({getattr(o, name)!r} -> {getattr(n, name)!r}) "
                        f"outside the pass's declared surface "
                        f"{sorted(surface)}")
    if opt.slots != orig.slots and "slots" not in surface:
        yield inp.violation(
            "pass-surface", None,
            "slot assignment changed outside the declared surface")
    orig_records = [(b.index, b.pc, b.direction, b.promoted)
                    for b in orig.branches]
    opt_records = [(b.index, b.pc, b.direction, b.promoted)
                   for b in opt.branches]
    if opt_records != orig_records and "branches" not in surface:
        yield inp.violation(
            "pass-surface", None,
            "branch records changed outside the declared surface")


def _check_unmarked_move(inp: RuleInput) -> Iterator[Violation]:
    if inp.pass_name != "moves":
        return
    for idx, instr in enumerate(inp.optimized.instrs):
        if (not instr.move_flag and instr.guard is None
                and instr.op is not Op.NOP
                and move_source(instr) is not None):
            yield inp.violation(
                "unmarked-move", idx,
                f"{instr.op.value} is a move idiom but was left "
                f"unmarked")


#: the structural rules, in the order they run and report
STRUCTURAL: Tuple[Callable[[RuleInput], Iterator[Violation]], ...] = (
    _check_def_before_use, _check_move_marking, _check_scale_shift_limit,
    _check_scale_provenance, _check_placement_order,
    _check_mem_branch_order, _check_branch_preserved, _check_guard_sound,
    _check_imm_encodable, _check_pass_surface, _check_unmarked_move)


__all__ = ["Violation", "RuleInput", "STRUCTURAL", "SEVERITY", "ERROR",
           "WARNING"]
