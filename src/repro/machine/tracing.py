"""Committed-stream records.

The functional executor emits one :class:`CommittedInstr` per retired
instruction; the trace cache, fill unit and timing pipeline all consume
this stream. It is the moral equivalent of the paper's correct-path
instruction stream.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from repro.isa.instruction import Instruction
from repro.machine.state import ArchState


class CommittedInstr:
    """One committed (correct-path) dynamic instruction."""

    __slots__ = ("pc", "instr", "next_pc", "taken", "mem_addr",
                 "mem_size", "is_store", "seq")

    def __init__(self, seq: int, pc: int, instr: Instruction, next_pc: int,
                 taken: bool = False, mem_addr: Optional[int] = None,
                 mem_size: int = 0, is_store: bool = False) -> None:
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.next_pc = next_pc
        self.taken = taken
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.is_store = is_store

    def __repr__(self) -> str:
        return (f"CommittedInstr(#{self.seq} pc={self.pc:#x} "
                f"{self.instr.op.value} -> {self.next_pc:#x})")


class CommittedTrace:
    """The full committed stream of one program run."""

    def __init__(self, records: List[CommittedInstr],
                 final_state: ArchState,
                 output: List[Union[int, str]]) -> None:
        self.records = records
        self.final_state = final_state
        self.output = output

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> CommittedInstr:
        return self.records[index]

    def __iter__(self) -> Iterator[CommittedInstr]:
        return iter(self.records)

    def dynamic_op_mix(self) -> dict:
        """Histogram of committed opcode classes (workload fingerprint)."""
        mix: dict = {}
        for record in self.records:
            key = record.instr.opclass.value
            mix[key] = mix.get(key, 0) + 1
        return mix

    def conditional_branch_count(self) -> int:
        return sum(1 for r in self.records if r.instr.is_cond_branch())

    def executed_edges(self) -> set:
        """Distinct executed control transitions as ``(pc, next_pc)``
        pairs. The halt self-transition (``next_pc == pc``) is
        excluded: it marks program exit, not a flow edge."""
        return {(r.pc, r.next_pc) for r in self.records
                if r.next_pc != r.pc}


__all__ = ["CommittedInstr", "CommittedTrace"]
