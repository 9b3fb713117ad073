"""Wrong-path fetch modeling (opt-in).

The committed-stream replay does not execute wrong paths (DESIGN.md
§3). This module recovers the *fetch-side* part of that fidelity: when
a branch mispredicts, the real machine spends the cycles until
resolution fetching down the wrong path, polluting the instruction
cache. The wrong path's instructions are statically known — they are
in the program image — so the walker decodes from the wrong target,
follows direct jumps and calls, falls through conditional branches, and
stops at indirect control flow (whose wrong-path targets depend on
wrong-path register values, which genuinely are unknowable here) or at
the edge of the text segment.

Enabled with ``SimConfig.model_wrong_path``; the pipeline then charges
one instruction-cache line access per wrong-path fetch cycle. Execution
resources consumed by wrong-path instructions remain unmodelled (they
would be squashed at resolution; their effect on FU availability is
second-order next to the cache pollution).
"""

from __future__ import annotations

from repro.cache.hierarchy import MemoryHierarchy
from repro.isa.opcodes import Op
from repro.program.image import Program


class WrongPathFetcher:
    """Replays wrong-path fetch streams against the I-cache."""

    def __init__(self, program: Program, hierarchy: MemoryHierarchy,
                 ic_fetch_width: int = 8, max_cycles: int = 64) -> None:
        self.program = program
        self.hierarchy = hierarchy
        self.ic_fetch_width = ic_fetch_width
        self.max_cycles = max_cycles
        self.fetch_cycles = 0        # wrong-path fetch cycles simulated
        self.instructions = 0        # wrong-path instructions fetched
        self.line_accesses = 0

    def wrong_target(self, record) -> int:
        """The wrong-path start PC for a mispredicted direct
        conditional branch: the path the (wrong) prediction chose."""
        instr = record.instr
        if record.taken:
            return record.pc + 4              # predicted not-taken
        return record.pc + (instr.imm or 0)   # predicted taken


    def pollute(self, start_pc: int, cycles: int) -> None:
        """Fetch down the wrong path for *cycles* fetch cycles,
        touching the I-cache like real wrong-path fetch would."""
        pc = start_pc
        budget = min(cycles, self.max_cycles)
        for _ in range(budget):
            if not self.program.contains_pc(pc):
                return
            self.fetch_cycles += 1
            self.line_accesses += 1
            self.hierarchy.l1i.access(pc)
            pc = self._advance_one_group(pc)
            if pc is None:
                return

    def _advance_one_group(self, pc: int):
        """Consume one fetch group's worth of wrong-path instructions
        starting at *pc*; returns the next group's PC or ``None`` when
        the walk must stop (indirect control, serialization, text end).
        """
        for _ in range(self.ic_fetch_width):
            if not self.program.contains_pc(pc):
                return None
            instr = self.program.instr_at(pc)
            decoded = instr.decoded
            self.instructions += 1
            if decoded.is_indirect or decoded.is_return \
                    or decoded.is_serializing:
                return None
            if decoded.op is Op.J or decoded.op is Op.JAL:
                return instr.imm   # follow direct transfers
            # conditional branches fall through on the wrong path (a
            # not-taken static guess; their predictor state is already
            # polluted by the training we do not model).
            pc += 4
        return pc


__all__ = ["WrongPathFetcher"]
