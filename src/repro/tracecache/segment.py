"""Trace segments.

A segment is up to 16 instructions from one dynamic path of execution,
spanning several basic blocks (trace packing packs across block
boundaries), containing at most three *unpromoted* conditional branches
(promoted branches carry an embedded static prediction and do not
consume a predictor slot). Returns, indirect jumps and serializing
instructions terminate a segment; calls and direct jumps do not.

Instructions inside a segment are *copies* of the architected
instructions: the fill unit annotates and rewrites them without
touching the program image. A copy shares the program instruction's
decoded record; a pass rewrites an entry only through
:meth:`TraceSegment.rewrite`, which marks it for re-decoding.
``slots[i]`` is the issue slot (and thus
execution cluster) assigned to logical instruction ``i`` — identity
until the placement pass reassigns it; the logical order itself is
never permuted, mirroring the paper's alternative implementation where
a 4-bit field conveys placement while original order information is
retained for the memory scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import SegmentError
from repro.isa.decoded import Decoded


@dataclass
class BranchInfo:
    """Fetch-relevant facts about one conditional branch in a segment."""

    index: int          # logical position within the segment
    pc: int
    direction: bool     # the embedded (path) direction
    promoted: bool      # statically predicted via the bias table


@dataclass
class TraceSegment:
    """One trace cache line."""

    start_pc: int
    instrs: List[Any]
    branches: List[BranchInfo] = field(default_factory=list)
    slots: List[int] = field(default_factory=list)
    block_count: int = 1
    fill_cycle: int = 0
    #: DependencyInfo, set by the fill unit
    deps: Optional[Any] = None
    #: promotion state of the candidate's branches at build time, used
    #: by the fill unit's dedup (passes may remove branch records —
    #: e.g. predication — so the live list cannot be compared).
    build_promo: Tuple[bool, ...] = ()
    #: fetch facts, recorded by :meth:`seal`: branch records by logical
    #: index, and whether any instruction is predicated (guarded)
    branch_at: Dict[int, BranchInfo] = field(
        default_factory=dict, compare=False, repr=False)
    predicated: bool = field(default=False, compare=False, repr=False)
    #: indices of entries rewritten since the last :meth:`redecode`
    rewritten: Set[int] = field(
        default_factory=set, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.slots:
            self.slots = list(range(len(self.instrs)))

    # ------------------------------------------------------------------

    def rewrite(self, index: int, **fields: object) -> None:
        """Set *fields* on entry *index* and mark it for re-decoding.

        Every pass rewrites entries through this call, so
        :meth:`redecode` rebuilds the records of exactly the rewritten
        entries; the rest keep the record they share with the program
        image.
        """
        instr = self.instrs[index]
        for name, value in fields.items():
            setattr(instr, name, value)
        self.rewritten.add(index)

    def redecode(self) -> None:
        """Decode every entry rewritten since the last call, and every
        entry that has no record yet (a fresh NOP from dead-code
        removal or predication)."""
        rewritten = self.rewritten
        for index, instr in enumerate(self.instrs):
            # ``decoded`` is a cached property: an entry has a record
            # exactly when it sits in the instance dict.
            if index in rewritten or "decoded" not in instr.__dict__:
                instr.decoded = Decoded(instr)
        rewritten.clear()

    def seal(self) -> None:
        """Finish the segment for fetch: record the fetch facts and
        re-decode the rewritten and fresh entries.

        The fill unit calls this once, after its last pass and next to
        dependency marking; nothing may rewrite the segment afterwards,
        so the records and facts are never stale.
        """
        self.branch_at = {info.index: info for info in self.branches}
        self.predicated = any(instr.guard is not None
                              for instr in self.instrs)
        self.redecode()

    def __len__(self) -> int:
        return len(self.instrs)

    def clone(self) -> "TraceSegment":
        """An independent deep copy (instruction copies, fresh branch
        records and slot list). Used by the segment verifier to
        snapshot pre-optimization state; annotations objects are
        frozen, so sharing them is safe."""
        return TraceSegment(
            start_pc=self.start_pc,
            instrs=[instr.copy() for instr in self.instrs],
            branches=[BranchInfo(b.index, b.pc, b.direction, b.promoted)
                      for b in self.branches],
            slots=list(self.slots),
            block_count=self.block_count,
            fill_cycle=self.fill_cycle,
            deps=None,
            build_promo=self.build_promo,
            rewritten=set(self.rewritten))

    @property
    def path_key(self) -> Tuple[int, ...]:
        """Identity of the embedded path: the PC sequence."""
        return tuple(instr.pc for instr in self.instrs)

    @property
    def unpromoted_branch_count(self) -> int:
        return sum(1 for b in self.branches if not b.promoted)

    def validate(self, max_instrs: int = 16,
                 max_cond_branches: int = 3) -> None:
        """Check the structural invariants the fill unit must maintain.

        Reads the decoded records, so a rewritten segment must be
        sealed first (the trace cache validates on insert, and only
        sealed segments reach it).

        Raises:
            SegmentError: on any violation.
        """
        if not self.instrs:
            raise SegmentError("empty segment")
        if len(self.instrs) > max_instrs:
            raise SegmentError(
                f"segment has {len(self.instrs)} instructions "
                f"(max {max_instrs})")
        if self.unpromoted_branch_count > max_cond_branches:
            raise SegmentError(
                f"segment has {self.unpromoted_branch_count} unpromoted "
                f"conditional branches (max {max_cond_branches})")
        if self.instrs[0].pc != self.start_pc:
            raise SegmentError("start_pc does not match first instruction")
        for instr in self.instrs[:-1]:
            if instr.decoded.terminates_segment:
                raise SegmentError(
                    f"{instr.op.value} at {instr.pc:#x} must terminate "
                    f"the segment but is not last")
        if sorted(self.slots) != list(range(len(self.instrs))):
            raise SegmentError("slot assignment is not a permutation")
        positions = [b.index for b in self.branches]
        if positions != sorted(positions):
            raise SegmentError("branch records out of order")
        for info in self.branches:
            instr = self.instrs[info.index]
            if not instr.decoded.is_cond_branch:
                raise SegmentError(
                    f"branch record at index {info.index} does not point "
                    f"at a conditional branch")
            if instr.pc != info.pc:
                raise SegmentError("branch record PC mismatch")

    # -- statistics helpers --------------------------------------------

    def optimized_counts(self) -> Dict[str, int]:
        """Per-optimization transformed-instruction counts (Table 2)."""
        moves = sum(1 for i in self.instrs if i.move_flag)
        reassoc = sum(1 for i in self.instrs if i.reassociated)
        scaled = sum(1 for i in self.instrs if i.scale is not None)
        any_opt = sum(1 for i in self.instrs
                      if i.move_flag or i.reassociated or i.scale is not None)
        return {"moves": moves, "reassoc": reassoc, "scaled": scaled,
                "any": any_opt}

    def listing(self) -> str:
        """Readable dump: slot, cluster, annotations per instruction."""
        from repro.isa.disasm import disassemble
        lines = [f"segment @ {self.start_pc:#x} "
                 f"({len(self.instrs)} instrs, {self.block_count} blocks)"]
        for idx, instr in enumerate(self.instrs):
            slot = self.slots[idx]
            lines.append(f"  [{idx:2d}] slot={slot:2d} cl={slot // 4} "
                         f"{disassemble(instr)}")
        return "\n".join(lines)


__all__ = ["TraceSegment", "BranchInfo"]
