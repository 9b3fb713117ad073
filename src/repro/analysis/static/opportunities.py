"""Static upper bounds on the fill unit's optimization opportunities.

For each of the paper's rewrites the fill unit's eligibility test is a
*dynamic* property of a trace segment — an alias or provenance fact
established along the segment's path. Every segment path is a subpath
of some CFG path, and every segment-local fact is killed by exactly the
register redefinitions that kill it here, so a forward may-analysis
from program entry over-approximates any state a segment can be in.
The PCs this module marks are therefore a sound superset of the PCs
the dynamic passes can ever transform — the *opportunity oracle* the
harness cross-checker enforces (``repro.harness.crosscheck``).

Three register sets flow together (move rewriting feeds the other two,
because a rewritten operand can expose a chain the original hid):

* ``Z`` — registers that may alias ``$zero`` through marked moves;
  an instruction whose operand is in ``Z`` may *become* a move idiom
  after the move pass rewrites that operand.
* ``A`` — registers that may hold a live immediate-add provenance
  (any ``ADDI`` destination, propagated through possible moves).
* ``H`` — registers that may hold a live short-shift result
  (``SLL`` by 1..max_shift, propagated through possible moves).

The oracle only covers the paper's four passes: the predication
extension squashes branches and guards instructions, outside the
static bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.static.cfg import BasicBlock, ControlFlowGraph
from repro.analysis.static.dataflow import DataflowAnalysis, solve
from repro.fillunit.opts.scaledadd import _SWAPPABLE as SWAPPABLE_FORMATS
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    REASSOCIABLE,
    SCALED_ADD_SHIFTS,
    SCALED_ADD_TARGETS,
    Op,
    op_info,
)
from repro.isa.registers import ZERO_REG

#: (Z, A, H) register bitmask triple.
OppValue = Tuple[int, int, int]


def _zeroish(reg: int, zero_mask: int) -> bool:
    return reg == ZERO_REG or bool((zero_mask >> reg) & 1)


def possible_move_sources(instr: Instruction,
                          zero_mask: int = 0) -> Tuple[int, ...]:
    """Candidate source registers if *instr* may be marked as a move.

    Mirrors :func:`repro.isa.instruction.move_source`, extended with
    *zero_mask*: a register that may alias ``$zero`` makes the
    register-form idioms (``ADD/OR/XOR/SUB`` with a zero operand)
    possible after the move pass rewrites the operand. Empty when the
    instruction can never be marked.
    """
    if instr.rd in (None, ZERO_REG):
        return ()
    op = instr.op
    if op in (Op.ADDI, Op.ORI, Op.XORI) and instr.imm == 0:
        return (instr.rs or 0,)
    if op in (Op.ADD, Op.OR, Op.XOR):
        rs, rt = instr.rs or 0, instr.rt or 0
        out: List[int] = []
        if _zeroish(rt, zero_mask):
            out.append(rs)
        if _zeroish(rs, zero_mask) and rt not in out:
            out.append(rt)
        return tuple(out)
    if op is Op.SUB and _zeroish(instr.rt or 0, zero_mask):
        return (instr.rs or 0,)
    if op in (Op.SLL, Op.SRL, Op.SRA) and instr.imm == 0:
        return (instr.rs or 0,)
    if op is Op.ANDI and instr.imm == 0:
        return (ZERO_REG,)
    return ()


class OpportunityAnalysis(DataflowAnalysis[OppValue]):
    """The joint forward may-analysis behind all three site detectors.

    The three components are computed together because ``A`` and ``H``
    propagate through *possible* moves, whose possibility depends on
    ``Z`` at the same point.
    """

    def __init__(self, max_shift: int = 3) -> None:
        self.max_shift = max_shift

    def boundary(self, cfg: ControlFlowGraph) -> OppValue:
        return (0, 0, 0)

    def initial(self, cfg: ControlFlowGraph) -> OppValue:
        return (0, 0, 0)

    def join(self, a: OppValue, b: OppValue) -> OppValue:
        return (a[0] | b[0], a[1] | b[1], a[2] | b[2])

    def transfer(self, instr: Instruction, value: OppValue) -> OppValue:
        z, a, h = value
        dest = instr.dest()
        if dest is None:
            return value
        sources = possible_move_sources(instr, z)
        gen_z = any(_zeroish(s, z) for s in sources)
        gen_a = (instr.op in REASSOCIABLE
                 or any((a >> s) & 1 for s in sources))
        gen_h = ((instr.op in SCALED_ADD_SHIFTS
                  and 1 <= (instr.imm or 0) <= self.max_shift)
                 or any((h >> s) & 1 for s in sources))
        mask = ~(1 << dest)
        z &= mask
        a &= mask
        h &= mask
        bit = 1 << dest
        if gen_z:
            z |= bit
        if gen_a:
            a |= bit
        if gen_h:
            h |= bit
        return (z, a, h)


@dataclass(frozen=True)
class OpportunitySites:
    """Static site sets: the PCs each pass may ever transform."""

    moves: FrozenSet[int]
    reassoc: FrozenSet[int]
    scaled: FrozenSet[int]

    @property
    def any_opt(self) -> FrozenSet[int]:
        return self.moves | self.reassoc | self.scaled

    def counts(self) -> Dict[str, int]:
        return {"moves": len(self.moves), "reassoc": len(self.reassoc),
                "scaled": len(self.scaled), "any_opt": len(self.any_opt)}

    def as_sets(self) -> Dict[str, FrozenSet[int]]:
        return {"moves": self.moves, "reassoc": self.reassoc,
                "scaled": self.scaled, "any_opt": self.any_opt}


def find_opportunities(cfg: ControlFlowGraph,
                       max_shift: int = 3) -> OpportunitySites:
    """Run the joint analysis and classify every instruction."""
    result = solve(cfg, OpportunityAnalysis(max_shift))
    moves: Set[int] = set()
    reassoc: Set[int] = set()
    scaled: Set[int] = set()
    for block in cfg.blocks:
        for instr, value in zip(block.instrs,
                                result.instr_values(block.index)):
            z, a, h = value
            pc = instr.pc or 0
            if possible_move_sources(instr, z):
                moves.add(pc)
            if (instr.op in REASSOCIABLE and instr.rs is not None
                    and (a >> instr.rs) & 1):
                reassoc.add(pc)
            if instr.op in SCALED_ADD_TARGETS:
                rs_hit = (instr.rs is not None
                          and (h >> instr.rs) & 1)
                rt_hit = (instr.format in SWAPPABLE_FORMATS
                          and instr.rt is not None
                          and (h >> instr.rt) & 1)
                if rs_hit or rt_hit:
                    scaled.add(pc)
    return OpportunitySites(moves=frozenset(moves),
                            reassoc=frozenset(reassoc),
                            scaled=frozenset(scaled))


# ----------------------------------------------------------------------
# Placement pressure (the fourth opt has no per-PC rewrite to bound —
# it permutes issue slots — so its static mirror is a per-block
# dependence profile: how much there *is* to steer).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockPressure:
    """Dependence profile of one basic block."""

    start: int
    length: int
    dep_edges: int            # intra-block producer->consumer pairs
    dep_height: int           # latency-weighted critical path
    cross_cluster_edges: int  # edges crossing clusters if issued in order


def block_pressure(block: BasicBlock, num_clusters: int = 4,
                   cluster_size: int = 4) -> BlockPressure:
    """Profile *block* under naive in-order issue-slot assignment.

    ``cross_cluster_edges`` counts the dependence edges that would pay
    the +1-cycle cross-cluster bypass if instructions were packed into
    slots in program order — an upper bound on what placement can win
    back within the block.
    """
    width = num_clusters * cluster_size
    last_def: Dict[int, int] = {}
    height: List[int] = []
    edges = 0
    crossing = 0
    for index, instr in enumerate(block.instrs):
        producers = {last_def[reg] for reg in instr.sources()
                     if reg in last_def}
        depth = 0
        for producer in producers:
            edges += 1
            p_cluster = (producer % width) // cluster_size
            c_cluster = (index % width) // cluster_size
            if p_cluster != c_cluster:
                crossing += 1
            depth = max(depth, height[producer])
        height.append(depth + op_info(instr.op).latency)
        dest = instr.dest()
        if dest is not None:
            last_def[dest] = index
    return BlockPressure(start=block.start, length=len(block.instrs),
                         dep_edges=edges,
                         dep_height=max(height) if height else 0,
                         cross_cluster_edges=crossing)


def placement_pressure(cfg: ControlFlowGraph, num_clusters: int = 4,
                       cluster_size: int = 4) -> List[BlockPressure]:
    return [block_pressure(block, num_clusters, cluster_size)
            for block in cfg.blocks]


__all__ = [
    "BlockPressure",
    "OpportunityAnalysis",
    "OpportunitySites",
    "block_pressure",
    "find_opportunities",
    "placement_pressure",
    "possible_move_sources",
]
