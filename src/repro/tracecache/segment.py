"""Trace segments.

A segment is up to 16 instructions from one dynamic path of execution,
spanning several basic blocks (trace packing packs across block
boundaries), containing at most three *unpromoted* conditional branches
(promoted branches carry an embedded static prediction and do not
consume a predictor slot). Returns, indirect jumps and serializing
instructions terminate a segment; calls and direct jumps do not.

A segment's entries are the program's instructions until a pass
rewrites them: an entry no pass rewrote *is* its program instruction
(and so holds its decoded record), and a pass rewrites an entry only
through :meth:`TraceSegment.rewrite`, which replaces it with an
updated copy (or through :meth:`TraceSegment.squash`, which replaces
it with a NOP), so no build writes the program image. Both mark the
entry for re-decoding. ``slots[i]`` is the issue slot (and thus
execution cluster) assigned to logical instruction ``i`` — identity
until the placement pass reassigns it; the logical order itself is
never permuted, so an entry's original index is its position,
mirroring the paper's alternative implementation where a 4-bit field
conveys placement while original order information is retained for
the memory scheduler. The line's checkpoint-block and control-flow
region ids (``block_ids``, ``flow_ids``) are stored with it, as the
paper's line stores its block numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.errors import SegmentError
from repro.isa.decoded import Decoded, decode_key
from repro.isa.instruction import make_nop


#: kinds of a fetch plan's control entries (:attr:`TraceSegment.controls`)
PREDICTED = 0       # conditional branch the predictor predicts
PROMOTED = 1        # conditional branch with an embedded prediction
UNCONDITIONAL = 2   # call, return or indirect jump


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
    #: each entry's checkpoint block and control-flow region, counted
    #: from the first entry unless given: the block id advances after
    #: every conditional branch, the flow id after every transfer.
    #: Passes never change them, so a clone shares the lists.
    block_ids: List[int] = field(default_factory=list)
    flow_ids: List[int] = field(default_factory=list)
    #: promotion state of the candidate's branches at build time, used
    #: by the fill unit's dedup (passes may remove branch records —
    #: e.g. predication — so the live list cannot be compared).
    build_promo: Tuple[bool, ...] = ()
    #: identity of the embedded path, the entries' pcs, counted from
    #: the entries unless given (the fill unit passes its candidate's).
    #: Passes keep every entry's pc, so it holds for the line's life:
    #: the trace cache keys the line on it and fetch matches it
    #: against the committed pcs.
    path_key: Tuple[int, ...] = field(default=(), compare=False,
                                      repr=False)
    #: the fetch plan, recorded by :meth:`seal`: the control entries
    #: as ``(logical index, kind, embedded direction)`` with kind
    #: :data:`PREDICTED`, :data:`PROMOTED` or :data:`UNCONDITIONAL`;
    #: ``coverage[k]``, the optimized, move, reassociated and scaled
    #: counts of the first *k* entries; and whether any instruction is
    #: predicated (guarded)
    controls: List[Tuple[int, int, bool]] = field(
        default_factory=list, compare=False, repr=False)
    coverage: List[Tuple[int, int, int, int]] = field(
        default_factory=list, compare=False, repr=False)
    predicated: bool = field(default=False, compare=False, repr=False)
    #: indices of entries rewritten since the last :meth:`redecode`
    rewritten: Set[int] = field(
        default_factory=set, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.slots:
            self.slots = list(range(len(self.instrs)))
        if not self.path_key:
            self.path_key = tuple([instr.pc for instr in self.instrs])
        if not self.block_ids:
            block_ids: List[int] = []
            flow_ids: List[int] = []
            block = flow = 0
            for instr in self.instrs:
                block_ids.append(block)
                flow_ids.append(flow)
                decoded = instr.decoded
                if decoded.is_ctrl:
                    flow += 1
                    if decoded.is_cond_branch:
                        block += 1
            self.block_ids, self.flow_ids = block_ids, flow_ids

    @property
    def block_count(self) -> int:
        """How many checkpoint blocks the entries span."""
        return self.block_ids[-1] + 1 if self.block_ids else 0

    # ------------------------------------------------------------------

    def rewrite(self, index: int, **fields: object) -> Any:
        """Replace entry *index* with a copy that has *fields* set,
        mark it for re-decoding and return it.

        Every pass rewrites entries through this call, so
        :meth:`redecode` re-decodes exactly the rewritten entries, and
        the rest stay the program's instructions. The copy keeps the
        old entry's record until then.
        """
        entry = self.instrs[index].copy()
        entry.__dict__.update(fields)
        self.instrs[index] = entry
        self.rewritten.add(index)
        return entry

    def squash(self, index: int) -> None:
        """Replace entry *index* with a NOP at the same pc, marked for
        re-decoding (predication)."""
        nop = make_nop()
        nop.pc = self.instrs[index].pc
        self.instrs[index] = nop
        self.rewritten.add(index)

    def redecode(self, records: Dict[Tuple[Any, ...], Decoded]) -> None:
        """Give every entry rewritten since the last call its record
        from *records*, the fill unit's decode table keyed on
        :func:`~repro.isa.decoded.decode_key`: entries of one shape
        share one record, decoded the first time the shape appears."""
        instrs = self.instrs
        for index in self.rewritten:
            instr = instrs[index]
            key = decode_key(instr)
            decoded = records.get(key)
            if decoded is None:
                decoded = records[key] = Decoded(instr)
            instr.decoded = decoded
        self.rewritten.clear()

    def seal(self, records: Dict[Tuple[Any, ...], Decoded]) -> None:
        """Finish the segment for fetch: re-decode the rewritten
        entries from *records*, then record the fetch plan, every fact
        fetch needs that depends only on the line.

        The fill unit calls this once, after its last pass; nothing may
        write the segment afterwards (the trace cache keeps each line's
        fill time itself), so the records and the plan are never
        stale, and a rebuild of the same input installs this segment
        again.
        """
        self.redecode(records)
        promoted = {info.index: info.direction
                    for info in self.branches if info.promoted}
        controls: List[Tuple[int, int, bool]] = []
        coverage = [(0, 0, 0, 0)]
        optimized = moves = reassoc = scaled = 0
        predicated = False
        for index, instr in enumerate(self.instrs):
            decoded = instr.decoded
            if decoded.is_cond_branch:
                if index in promoted:
                    controls.append((index, PROMOTED, promoted[index]))
                else:
                    controls.append((index, PREDICTED, False))
            elif decoded.is_call or decoded.is_indirect \
                    or decoded.is_return:
                controls.append((index, UNCONDITIONAL, False))
            if decoded.optimized:
                optimized += 1
                moves += decoded.move
                reassoc += decoded.reassociated
                scaled += decoded.scaled
            coverage.append((optimized, moves, reassoc, scaled))
            predicated = predicated or instr.guard is not None
        self.controls = controls
        self.coverage = coverage
        self.predicated = predicated

    def __len__(self) -> int:
        return len(self.instrs)

    def clone(self) -> "TraceSegment":
        """An independent deep copy (instruction copies, fresh branch
        records and slot list; the region ids, which nothing changes,
        are shared). Used by the segment verifier to snapshot
        pre-optimization state; annotations objects are frozen, so
        sharing them is safe."""
        return TraceSegment(
            start_pc=self.start_pc,
            instrs=[instr.copy() for instr in self.instrs],
            branches=[BranchInfo(b.index, b.pc, b.direction, b.promoted)
                      for b in self.branches],
            slots=list(self.slots),
            block_ids=self.block_ids,
            flow_ids=self.flow_ids,
            build_promo=self.build_promo,
            path_key=self.path_key,
            rewritten=set(self.rewritten))

    @property
    def unpromoted_branch_count(self) -> int:
        return sum(1 for b in self.branches if not b.promoted)

    def validate(self, max_instrs: int = 16,
                 max_cond_branches: int = 3) -> None:
        """Check the structural invariants the fill unit must maintain.

        Reads the decoded records, so a rewritten segment must be
        sealed first (the fill unit validates each segment it builds,
        once, after sealing it).

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


__all__ = ["TraceSegment", "BranchInfo", "PREDICTED", "PROMOTED",
           "UNCONDITIONAL"]
