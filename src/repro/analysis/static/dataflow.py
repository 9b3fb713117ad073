"""A small iterative dataflow framework over the static CFG.

One generic worklist solver (:func:`solve`) drives any forward
:class:`DataflowAnalysis` — any join-semilattice value — to a fixpoint.
The opportunity detectors define their own analysis; reaching
definitions, which the lint pass's ``undefined-read`` rule reads, is
provided here. Its values map each register to the set of defining
PCs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Generic, List, Tuple, TypeVar

from repro.analysis.static.cfg import ControlFlowGraph
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

V = TypeVar("V")

#: pseudo-PC for definitions live at program entry (the loader's
#: ``$sp``/``$gp`` initialisation plus hardwired ``$zero``).
ENTRY_DEF = -1

#: registers the loader initialises before the first instruction.
ENTRY_REGS: Tuple[int, ...] = (0, 28, 29)

#: out-of-band registers a syscall reads (service in ``$v0``,
#: argument in ``$a0``; see ``repro.machine.executor``).
SYSCALL_USES: Tuple[int, ...] = (2, 4)


def instr_uses(instr: Instruction) -> Tuple[int, ...]:
    """Registers *instr* reads, including a syscall's out-of-band
    service/argument registers."""
    if instr.op is Op.SYSCALL:
        return SYSCALL_USES
    return instr.sources()


class DataflowAnalysis(Generic[V]):
    """One forward dataflow problem: lattice and transfer.

    Subclasses implement the four hooks; the per-instruction
    :meth:`transfer` is composed over blocks by the solver.
    """

    def boundary(self, cfg: ControlFlowGraph) -> V:
        """Value at the entry block."""
        raise NotImplementedError

    def initial(self, cfg: ControlFlowGraph) -> V:
        """Optimistic initial value for every block."""
        raise NotImplementedError

    def join(self, a: V, b: V) -> V:
        raise NotImplementedError

    def transfer(self, instr: Instruction, value: V) -> V:
        raise NotImplementedError


@dataclass
class DataflowResult(Generic[V]):
    """Fixpoint values per block, with per-instruction replay."""

    analysis: DataflowAnalysis[V]
    cfg: ControlFlowGraph
    block_in: List[V]
    block_out: List[V]

    def instr_values(self, block_index: int) -> List[V]:
        """Per-instruction values in program order: entry ``i`` is the
        value immediately *before* instruction ``i``."""
        transfer = self.analysis.transfer
        value = self.block_in[block_index]
        out: List[V] = []
        for instr in self.cfg.blocks[block_index].instrs:
            out.append(value)
            value = transfer(instr, value)
        return out


def solve(cfg: ControlFlowGraph,
          analysis: DataflowAnalysis[V]) -> DataflowResult[V]:
    """Run *analysis* to a fixpoint over *cfg* (worklist iteration)."""
    blocks = cfg.blocks
    n = len(blocks)
    block_in: List[V] = [analysis.initial(cfg) for _ in range(n)]
    block_out: List[V] = [analysis.initial(cfg) for _ in range(n)]

    worklist = deque(range(n))
    queued = [True] * n
    while worklist:
        index = worklist.popleft()
        queued[index] = False
        block = blocks[index]
        value = (analysis.boundary(cfg) if index == cfg.entry
                 else analysis.initial(cfg))
        for src in block.preds:
            value = analysis.join(value, block_out[src])
        block_in[index] = value
        for instr in block.instrs:
            value = analysis.transfer(instr, value)
        if value != block_out[index]:
            block_out[index] = value
            for tgt in block.succs:
                if not queued[tgt]:
                    queued[tgt] = True
                    worklist.append(tgt)
    return DataflowResult(analysis, cfg, block_in, block_out)


ReachingMap = Dict[int, FrozenSet[int]]


class ReachingDefinitions(DataflowAnalysis[ReachingMap]):
    """Which definition sites may reach each point, per register.

    Values map register -> frozenset of defining PCs (:data:`ENTRY_DEF`
    stands for the loader's initialisation). A register absent from the
    map is not defined on *any* path — the lint pass's undefined-read
    signal.
    """

    def __init__(self, entry_regs: Tuple[int, ...] = ENTRY_REGS) -> None:
        self.entry_regs = entry_regs

    def boundary(self, cfg: ControlFlowGraph) -> ReachingMap:
        return {reg: frozenset({ENTRY_DEF}) for reg in self.entry_regs}

    def initial(self, cfg: ControlFlowGraph) -> ReachingMap:
        return {}

    def join(self, a: ReachingMap, b: ReachingMap) -> ReachingMap:
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        for reg, defs in b.items():
            have = out.get(reg)
            out[reg] = defs if have is None else have | defs
        return out

    def transfer(self, instr: Instruction,
                 value: ReachingMap) -> ReachingMap:
        dest = instr.dest()
        if dest is None:
            return value
        out = dict(value)
        out[dest] = frozenset({instr.pc or 0})
        return out


__all__ = [
    "DataflowAnalysis",
    "DataflowResult",
    "ENTRY_DEF",
    "ENTRY_REGS",
    "ReachingDefinitions",
    "SYSCALL_USES",
    "instr_uses",
    "solve",
]
