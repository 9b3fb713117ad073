"""Instruction placement pass tests (paper §4.5)."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.fillunit.opts.base import OptimizationConfig, PassContext
from repro.fillunit.opts.placement import PlacementPass, _producer_masks
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.tracecache.segment import TraceSegment
from tests.helpers import build_segments

PLACE = OptimizationConfig.only("placement")


def place(instrs, num_clusters=4, cluster_size=4):
    seg = TraceSegment(start_pc=0, instrs=instrs)
    for idx, instr in enumerate(instrs):
        instr.pc = 4 * idx
    ctx = PassContext(num_clusters, cluster_size,
                      OptimizationConfig.only("placement"))
    PlacementPass().apply(seg, ctx)
    return seg


def cluster_of(seg, idx, cluster_size=4, num_clusters=4):
    return (seg.slots[idx] // cluster_size) % num_clusters


def test_independent_instructions_keep_order():
    instrs = [Instruction(Op.ADDI, rd=8 + i, rs=0, imm=i) for i in range(8)]
    seg = place(instrs)
    assert seg.slots == list(range(8))


def test_consumer_follows_producer_into_cluster():
    # producer in slot 0 (cluster 0); 4 independent fillers would push
    # the consumer to cluster 1 under identity order — placement pulls
    # it back to cluster 0.
    instrs = [
        Instruction(Op.ADDI, rd=8, rs=0, imm=1),          # producer
        Instruction(Op.ADDI, rd=20, rs=0, imm=0),
        Instruction(Op.ADDI, rd=21, rs=0, imm=0),
        Instruction(Op.ADDI, rd=22, rs=0, imm=0),
        Instruction(Op.ADD, rd=9, rs=8, rt=8),            # consumer
    ]
    seg = place(instrs)
    assert cluster_of(seg, 0) == 0
    assert cluster_of(seg, 4) == 0          # consumer joined cluster 0
    assert seg.slots[4] in (1, 2, 3)


def test_two_chains_gather_into_distinct_clusters():
    # Two four-deep chains interleaved in program order fill a
    # 2-cluster x 2-FU machine exactly; placement should give each
    # chain its own cluster.
    instrs = [
        Instruction(Op.ADDI, rd=8, rs=0, imm=1),     # a0
        Instruction(Op.ADDI, rd=16, rs=0, imm=2),    # b0
        Instruction(Op.ADD, rd=9, rs=8, rt=8),       # a1
        Instruction(Op.ADD, rd=17, rs=16, rt=16),    # b1
        Instruction(Op.ADD, rd=10, rs=9, rt=9),      # a2
        Instruction(Op.ADD, rd=18, rs=17, rt=17),    # b2
        Instruction(Op.ADD, rd=11, rs=10, rt=10),    # a3
        Instruction(Op.ADD, rd=19, rs=18, rt=18),    # b3
    ]
    seg = place(instrs, num_clusters=2, cluster_size=2)
    chain_a = {cluster_of(seg, i, 2, 2) for i in (0, 2, 4, 6)}
    chain_b = {cluster_of(seg, i, 2, 2) for i in (1, 3, 5, 7)}
    assert chain_a == {0}
    assert chain_b == {1}


def test_slots_always_a_permutation():
    instrs = [Instruction(Op.ADD, rd=8 + (i % 3), rs=8, rt=9)
              for i in range(11)]
    seg = place(instrs)
    assert sorted(seg.slots) == list(range(11))


def test_logical_order_never_changes():
    """We model the steering-field variant: placement assigns slots but
    never permutes the architectural instruction order (original-order
    information stays available for the memory scheduler)."""
    source = """
    main:
        addi $t0, $zero, 1
        addi $t1, $zero, 2
        add  $t2, $t0, $t0
        add  $t3, $t1, $t1
        sw   $t2, 0($sp)
        lw   $t4, 0($sp)
        halt
    """
    _, _, plain = build_segments(source)
    _, _, placed = build_segments(source, PLACE)
    assert [i.op for i in placed[0].instrs] == [i.op for i in plain[0].instrs]
    assert placed[0].path_key == plain[0].path_key


def test_stats_report_movement():
    instrs = [
        Instruction(Op.ADDI, rd=8, rs=0, imm=1),
        Instruction(Op.ADDI, rd=20, rs=0, imm=0),
        Instruction(Op.ADDI, rd=21, rs=0, imm=0),
        Instruction(Op.ADDI, rd=22, rs=0, imm=0),
        Instruction(Op.ADD, rd=9, rs=8, rt=8),
    ]
    seg = TraceSegment(start_pc=0, instrs=instrs)
    for idx, instr in enumerate(instrs):
        instr.pc = 4 * idx
    stats = PlacementPass().apply(
        seg, PassContext(4, 4, OptimizationConfig.only("placement")))
    assert stats["placed_instructions"] == 5
    assert stats["placement_moved"] > 0


def test_single_instruction_segment():
    seg = place([Instruction(Op.ADDI, rd=8, rs=0, imm=1)])
    assert seg.slots == [0]


def test_placement_of_a_bare_segment_follows_its_marking():
    """Placement marks the segment it places: a bare segment is placed
    as the heuristic places it on the producers of its entries."""
    instrs = [
        Instruction(Op.ADDI, rd=8, rs=0, imm=1, pc=0),
        Instruction(Op.ADDI, rd=20, rs=0, imm=0, pc=4),
        Instruction(Op.ADDI, rd=21, rs=0, imm=0, pc=8),
        Instruction(Op.ADDI, rd=22, rs=0, imm=0, pc=12),
        Instruction(Op.ADDI, rd=23, rs=0, imm=0, pc=16),
        Instruction(Op.ADD, rd=9, rs=8, rt=8, pc=20),
    ]
    seg = TraceSegment(start_pc=0, instrs=instrs)
    stats = PlacementPass().apply(seg, PassContext(4, 4, PLACE))
    expected = oracle_placement(instrs, 4, 4)
    assert (seg.slots, stats["placement_moved"]) == expected
    assert expected[0] != list(range(len(instrs)))


def internal_producers(instrs):
    """Per entry, the set of earlier entries that last wrote a register
    it reads (its segment-internal producers)."""
    producers = []
    last_def = {}
    for index, instr in enumerate(instrs):
        producers.append({last_def[reg] for reg in instr.decoded.sources
                          if reg in last_def})
        if instr.decoded.dest is not None:
            last_def[instr.decoded.dest] = index
    return producers


def oracle_placement(instrs, num_clusters, cluster_size):
    """The paper's heuristic on producer *sets* (the pass's former
    loop, before producer bitmasks): ``(slots, moved)``."""
    producers = internal_producers(instrs)
    count = len(instrs)
    slots = [0] * count
    placed_in = [set() for _ in range(num_clusters)]
    unplaced = list(range(count))
    moved = 0
    for slot in range(count):
        members = placed_in[(slot // cluster_size) % num_clusters]
        pick = unplaced[0]
        if members:
            for candidate in unplaced:
                if not producers[candidate].isdisjoint(members):
                    pick = candidate
                    break
        unplaced.remove(pick)
        slots[pick] = slot
        members.add(pick)
        if pick != slot:
            moved += 1
    return slots, moved


#: register-operand shapes: ADD reads two and writes one, ADDI reads
#: one, SWX reads three (value, base, index) and writes none
_SHAPES = {
    Op.ADD: lambda regs: dict(rd=regs[0], rs=regs[1], rt=regs[2]),
    Op.ADDI: lambda regs: dict(rd=regs[0], rs=regs[1], imm=1),
    Op.SWX: lambda regs: dict(rd=regs[0], rs=regs[1], rt=regs[2]),
}


@st.composite
def producer_structures(draw):
    """Up to 16 entries over six registers (register zero included, so
    some operands are constants), giving chains, fan-in, fan-out and
    redefinitions."""
    count = draw(st.integers(1, 16))
    instrs = []
    for _ in range(count):
        op = draw(st.sampled_from(sorted(_SHAPES, key=lambda o: o.value)))
        regs = draw(st.lists(st.integers(0, 5), min_size=3, max_size=3))
        instrs.append(Instruction(op, **_SHAPES[op](regs)))
    return instrs


@pytest.mark.parametrize("num_clusters,cluster_size", [(4, 4), (2, 8)])
@given(instrs=producer_structures())
@settings(max_examples=200, deadline=None)
def test_bitmask_placement_matches_set_oracle(instrs, num_clusters,
                                              cluster_size):
    """Placement on producer bitmasks assigns the slots, and reports the
    movement, of the set-based heuristic; the masks name exactly the
    segment-internal producers."""
    producers = internal_producers(instrs)
    for index, mask in enumerate(_producer_masks(instrs)):
        assert {bit for bit in range(len(instrs)) if mask >> bit & 1} \
            == producers[index]
    seg = TraceSegment(start_pc=0, instrs=instrs)
    stats = PlacementPass().apply(
        seg, PassContext(num_clusters, cluster_size, PLACE))
    assert (seg.slots, stats["placement_moved"]) == oracle_placement(
        instrs, num_clusters, cluster_size)
