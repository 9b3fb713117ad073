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
from repro.program.image import Program


class CommittedInstr:
    """One committed (correct-path) dynamic instruction.

    A record's sequence number is its index in the trace; the record
    does not carry it. Records are shared: a load or store gets a fresh
    record each time it executes, but every other record is fixed by
    its pc and outcome, so the executor builds it once and commits the
    same object again (one per pc, two per conditional branch, one per
    indirect-jump target). A record is therefore read-only once made:
    no consumer may write to one.
    """

    __slots__ = ("pc", "instr", "next_pc", "taken", "mem_addr",
                 "mem_size", "is_store")

    def __init__(self, pc: int, instr: Instruction, next_pc: int,
                 taken: bool = False, mem_addr: Optional[int] = None,
                 mem_size: int = 0, is_store: bool = False) -> None:
        self.pc = pc
        self.instr = instr
        self.next_pc = next_pc
        self.taken = taken
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.is_store = is_store

    def __repr__(self) -> str:
        return (f"CommittedInstr(pc={self.pc:#x} "
                f"{self.instr.op.value} -> {self.next_pc:#x})")


class CommittedTrace:
    """The full committed stream of one program run.

    *program* is the static image the stream was executed from; the
    timing engine reads it for TRRIP's static temperature hints and
    for wrong-path fetch.
    """

    def __init__(self, records: List[CommittedInstr],
                 final_state: ArchState,
                 output: List[Union[int, str]],
                 program: Optional[Program] = None) -> None:
        self.records = records
        self.final_state = final_state
        self.output = output
        self.program = program

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
