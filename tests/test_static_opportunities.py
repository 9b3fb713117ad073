"""Opportunity detectors: static site sets per fill-unit pass."""

from repro.analysis.static import analyze_program
from repro.analysis.static.cfg import build_cfg
from repro.analysis.static.opportunities import (
    block_pressure,
    find_opportunities,
    possible_move_sources,
)
from repro.asm import assemble
from repro.core.config import SimConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

T0, T1, T2, T3 = 8, 9, 10, 11


PAPER = SimConfig.paper()


def _sites(source, max_shift=PAPER.optimizations.max_scale_shift):
    cfg = build_cfg(assemble(source))
    return cfg.program, find_opportunities(cfg, max_shift)


def test_direct_move_idioms_are_sites():
    program, sites = _sites("""
main:
    addi $t0, $zero, 5
    addi $t1, $t0, 0
    or   $t2, $t1, $zero
    sub  $t3, $t2, $zero
    halt
""")
    base = program.symbols["main"]
    assert sites.moves == frozenset({base + 4, base + 8, base + 12})


def test_alias_chain_exposes_a_move_site():
    """A register that may alias $zero makes a later register-form
    instruction a possible move after the pass rewrites the operand."""
    program, sites = _sites("""
main:
    addi $t3, $zero, 7
    add  $t1, $zero, $zero
    or   $t2, $t3, $t1
    halt
""")
    base = program.symbols["main"]
    # add:   both operands are $zero -> move (and $t1 joins Z).
    # or:    $t1 may alias $zero -> the or may become a move of $t3.
    assert base + 4 in sites.moves
    assert base + 8 in sites.moves


def test_redefinition_kills_the_alias():
    program, sites = _sites("""
main:
    add  $t1, $zero, $zero
    addi $t1, $t1, 5
    or   $t2, $t3, $t1
    halt
""")
    base = program.symbols["main"]
    # After the addi, $t1 no longer aliases $zero: the or is not a
    # possible move.
    assert base + 8 not in sites.moves


def test_reassociable_chain_site():
    program, sites = _sites("""
main:
    addi $t0, $zero, 5
    addi $t1, $t0, 6
    addi $t2, $t3, 7
    halt
""")
    base = program.symbols["main"]
    # Only the second addi consumes live ADDI provenance; the first's
    # rs is $zero and the third's rs has none.
    assert sites.reassoc == frozenset({base + 4})


def test_scaled_add_pair_including_swapped_operand():
    program, sites = _sites("""
main:
    addi $t3, $zero, 9
    sll  $t0, $t3, 2
    add  $t1, $t0, $t3
    add  $t2, $t3, $t0
    halt
""")
    base = program.symbols["main"]
    # Both adds: one consumes the shift through rs, one through rt
    # (R3 is operand-swappable for the scaled-add pass).
    assert sites.scaled == frozenset({base + 8, base + 12})


def test_large_shift_is_not_a_scaled_opportunity():
    program, sites = _sites("""
main:
    addi $t3, $zero, 9
    sll  $t0, $t3, 4
    add  $t1, $t0, $t3
    halt
""")
    assert sites.scaled == frozenset()


def test_max_shift_is_configurable():
    source = """
main:
    addi $t3, $zero, 9
    sll  $t0, $t3, 3
    add  $t1, $t0, $t3
    halt
"""
    _, wide = _sites(source, max_shift=3)
    _, narrow = _sites(source, max_shift=2)
    assert len(wide.scaled) == 1
    assert narrow.scaled == frozenset()


def test_possible_move_sources_idioms():
    assert possible_move_sources(
        Instruction(Op.ADDI, rd=T1, rs=T0, imm=0)) == (T0,)
    assert possible_move_sources(
        Instruction(Op.ANDI, rd=T1, rs=T0, imm=0)) == (0,)
    # Zero destination is a no-op, never a move.
    assert possible_move_sources(
        Instruction(Op.ADDI, rd=0, rs=T0, imm=0)) == ()
    # With $t2 in the may-alias-zero mask, both operands qualify.
    both = possible_move_sources(
        Instruction(Op.ADD, rd=T1, rs=T0, rt=T2), zero_mask=1 << T2)
    assert both == (T0,)
    swapped = possible_move_sources(
        Instruction(Op.ADD, rd=T1, rs=T2, rt=T0), zero_mask=1 << T2)
    assert swapped == (T0,)


def test_sites_counts_and_union():
    """The report derives the union and the per-class counts from its
    site lists; nothing else stores them."""
    report = analyze_program(assemble("""
main:
    addi $t0, $zero, 5
    addi $t1, $t0, 0
    sll  $t2, $t1, 2
    add  $t3, $t2, $t0
    halt
"""), "t", PAPER)
    sites = report.site_sets()
    assert sites["any_opt"] == (sites["moves"] | sites["reassoc"]
                                | sites["scaled"])
    assert report.static_bounds() == {
        name: len(pcs) for name, pcs in sites.items()}
    assert report.static_bounds()["scaled"] == 1


def test_block_pressure_counts_dependences():
    cfg = build_cfg(assemble("""
main:
    addi $t0, $zero, 1
    addi $t1, $t0, 2
    add  $t2, $t1, $t0
    halt
"""))
    pressure = block_pressure(cfg.blocks[cfg.entry], PAPER.num_clusters,
                              PAPER.cluster_size)
    # addi->addi, addi->add (x2): three intra-block dependence edges.
    assert pressure.dep_edges == 3
    assert pressure.dep_height >= 3
    # All four instructions land in cluster 0 under in-order packing.
    assert pressure.cross_cluster_edges == 0
