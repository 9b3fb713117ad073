"""Seeded-mutation tests for the segment verifier.

Each test hand-builds a clean (original, optimized) pair, breaks the
rewrite in exactly one way, and asserts the verifier reports it via
exactly the expected rule — the suppression machinery must keep the
equivalence checker from double-reporting defects a structural rule
already explains, and vice versa.
"""

import re
from pathlib import Path

from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.instruction import GuardAnnotation, Instruction, \
    ScaleAnnotation, make_nop
from repro.isa.opcodes import Op
from repro.tracecache.segment import BranchInfo, TraceSegment
from repro.verify import ERROR, SEVERITY, SegmentVerifier
from repro.verify.rules import STRUCTURAL

#: a mutation surface allowing every field and structure, so only the
#: rule under test fires (the pass-surface tests narrow it)
ANYTHING = frozenset({"op", "rd", "rs", "rt", "imm", "move_flag",
                      "move_bypassed", "scale", "guard", "reassociated",
                      "squash", "slots", "branches"})


def seg(instrs, branches=(), start_pc=0x1000):
    for idx, instr in enumerate(instrs):
        if instr.pc is None:
            instr.pc = start_pc + 4 * idx
    return TraceSegment(start_pc=start_pc, instrs=list(instrs),
                        branches=list(branches))


def check(original, optimized, config=None, pass_name="mutant",
          surface=ANYTHING):
    verifier = SegmentVerifier(config or OptimizationConfig.all())
    return verifier.check(original, optimized, pass_name, surface)


def assert_exactly(violations, rule_id):
    """The mutation is caught by *rule_id* and nothing else."""
    errors = {v.rule for v in violations if v.severity == ERROR}
    assert errors == {rule_id}, (
        f"expected exactly {rule_id!r}, got {sorted(errors)}: "
        + "; ".join(v.render() for v in violations))


# ----------------------------------------------------------------------
# one seeded mutation per structural rule
# ----------------------------------------------------------------------

def test_def_before_use_catches_squashed_live_def():
    original = seg([
        Instruction(Op.ADDI, rd=8, rs=0, imm=4),
        Instruction(Op.ADDI, rd=9, rs=0, imm=8),
    ])
    optimized = original.clone()
    optimized.instrs[0] = make_nop()
    optimized.instrs[0].pc = original.instrs[0].pc
    assert_exactly(check(original, optimized), "def-before-use")


def test_move_marking_catches_flag_on_non_move():
    original = seg([Instruction(Op.ADD, rd=10, rs=8, rt=9)])
    optimized = original.clone()
    optimized.instrs[0].move_flag = True
    assert_exactly(check(original, optimized), "move-marking")


def test_move_marking_catches_guarded_move():
    original = seg([
        Instruction(Op.NOP),
        Instruction(Op.ADDI, rd=9, rs=8, imm=0),
    ])
    optimized = original.clone()
    optimized.instrs[1].move_flag = True
    optimized.instrs[1].guard = GuardAnnotation(reg=11,
                                                execute_if_zero=True)
    violations = check(original, optimized)
    assert any(v.rule == "move-marking" for v in violations)


def test_scale_shift_limit_catches_wide_shift():
    original = seg([
        Instruction(Op.SLL, rd=9, rs=8, imm=7),
        Instruction(Op.ADD, rd=10, rs=9, rt=11),
    ])
    optimized = original.clone()
    optimized.instrs[1].scale = ScaleAnnotation(src=8, shamt=7)
    assert_exactly(check(original, optimized), "scale-shift-limit")


def test_scale_provenance_catches_wrong_source():
    original = seg([
        Instruction(Op.SLL, rd=9, rs=8, imm=2),
        Instruction(Op.ADD, rd=10, rs=9, rt=11),
    ])
    optimized = original.clone()
    optimized.instrs[1].scale = ScaleAnnotation(src=13, shamt=2)
    assert_exactly(check(original, optimized), "scale-provenance")


def test_scale_provenance_catches_redefined_source():
    original = seg([
        Instruction(Op.SLL, rd=9, rs=8, imm=2),
        Instruction(Op.ADDI, rd=8, rs=8, imm=4),   # redefines the source
        Instruction(Op.ADD, rd=10, rs=9, rt=11),
    ])
    optimized = original.clone()
    optimized.instrs[2].scale = ScaleAnnotation(src=8, shamt=2)
    assert_exactly(check(original, optimized), "scale-provenance")


def test_placement_order_catches_broken_permutation():
    original = seg([
        Instruction(Op.ADDI, rd=8, rs=0, imm=1),
        Instruction(Op.ADDI, rd=9, rs=0, imm=2),
    ])
    optimized = original.clone()
    optimized.slots = [1, 1]
    assert_exactly(check(original, optimized), "placement-order")


def test_mem_branch_order_catches_reordered_stores():
    a = Instruction(Op.SW, rs=9, rt=8, imm=0, pc=0x1000)
    b = Instruction(Op.SW, rs=9, rt=8, imm=0, pc=0x1004)
    original = seg([a, b])
    # Swap the two (otherwise identical) stores: the memory-order
    # projection notices, and so do placement-order, which holds every
    # position to the snapshot's pc, and pass-surface, for which an
    # entry's pc is never mutable.
    optimized = seg([b.copy(), a.copy()])
    errors = {v.rule for v in check(original, optimized)
              if v.severity == ERROR}
    assert errors == {"mem-branch-order", "placement-order",
                      "pass-surface"}


def test_mem_branch_order_catches_dropped_store():
    original = seg([Instruction(Op.SW, rs=9, rt=8, imm=0)])
    optimized = original.clone()
    optimized.squash(0)
    assert_exactly(check(original, optimized), "mem-branch-order")


def test_branch_preserved_catches_altered_displacement():
    branch = Instruction(Op.BEQ, rs=8, rt=0, imm=8, pc=0x1000)
    original = seg(
        [branch, Instruction(Op.ADDI, rd=9, rs=0, imm=1)],
        branches=[BranchInfo(0, 0x1000, direction=False,
                             promoted=False)])
    optimized = original.clone()
    optimized.instrs[0].imm = 12
    assert_exactly(check(original, optimized), "branch-preserved")


def test_branch_preserved_catches_dropped_record():
    branch = Instruction(Op.BEQ, rs=8, rt=0, imm=8, pc=0x1000)
    original = seg(
        [branch, Instruction(Op.ADDI, rd=9, rs=0, imm=1),
         Instruction(Op.ADDI, rd=9, rs=0, imm=2)],
        branches=[BranchInfo(0, 0x1000, direction=False,
                             promoted=False)])
    optimized = original.clone()
    optimized.branches = []        # record dropped, branch NOT squashed
    assert_exactly(check(original, optimized), "branch-preserved")
    # branch squashed, but its body squashed too rather than guarded:
    # no predication conversion either
    optimized.squash(0)
    optimized.squash(1)
    assert_exactly(check(original, optimized,
                         OptimizationConfig.extended()),
                   "branch-preserved")


def _predicated_pair():
    """A valid predication conversion (clean by construction)."""
    branch = Instruction(Op.BEQ, rs=8, rt=0, imm=8, pc=0x1000)
    original = seg(
        [branch, Instruction(Op.ADDI, rd=9, rs=10, imm=1)],
        branches=[BranchInfo(0, 0x1000, direction=False,
                             promoted=False)])
    optimized = original.clone()
    squashed = make_nop()
    squashed.pc = branch.pc
    optimized.instrs[0] = squashed
    optimized.instrs[1].guard = GuardAnnotation(reg=8,
                                                execute_if_zero=False)
    optimized.branches = []
    return original, optimized


def test_valid_predication_conversion_is_clean():
    original, optimized = _predicated_pair()
    assert check(original, optimized) == []


def test_guard_sound_catches_inverted_sense():
    original, optimized = _predicated_pair()
    optimized.instrs[1].guard = GuardAnnotation(reg=8,
                                                execute_if_zero=True)
    assert_exactly(check(original, optimized), "guard-sound")


def test_guard_sound_catches_wrong_register():
    original, optimized = _predicated_pair()
    optimized.instrs[1].guard = GuardAnnotation(reg=13,
                                                execute_if_zero=False)
    assert_exactly(check(original, optimized), "guard-sound")


def test_imm_encodable_catches_overflowed_reassociation():
    original = seg([
        Instruction(Op.ADDI, rd=9, rs=8, imm=20000),
        Instruction(Op.ADDI, rd=10, rs=9, imm=20000),
    ])
    optimized = original.clone()
    optimized.instrs[1].rs = 8
    optimized.instrs[1].imm = 40000
    optimized.instrs[1].reassociated = True
    assert_exactly(check(original, optimized), "imm-encodable")


def test_pass_surface_catches_mutation_outside_surface():
    """A semantically neutral mutation (marking a genuine move) is
    still flagged when the pass's surface does not allow it."""
    original = seg([
        Instruction(Op.ADDI, rd=8, rs=0, imm=4),
        Instruction(Op.ADDI, rd=9, rs=8, imm=0),
    ])
    optimized = original.clone()
    optimized.instrs[1].move_flag = True
    assert_exactly(
        check(original, optimized, pass_name="placement",
              surface=frozenset({"slots"})),
        "pass-surface")


def test_pass_surface_catches_identity_field_mutation():
    original = seg([Instruction(Op.ADDI, rd=8, rs=0, imm=4)])
    optimized = original.clone()
    optimized.instrs[0].pc = 0x2000
    violations = check(original, optimized, pass_name="moves",
                       surface=frozenset({"move_flag"}))
    assert any(v.rule == "pass-surface" for v in violations)


def test_unmarked_move_warns_after_moves_pass():
    original = seg([Instruction(Op.OR, rd=9, rs=8, rt=0)])
    optimized = original.clone()
    violations = check(
        original, optimized, pass_name="moves",
        surface=frozenset({"move_flag", "move_bypassed",
                           "rd", "rs", "rt"}))
    assert [v.rule for v in violations] == ["unmarked-move"]
    assert violations[0].severity == "warning"


# ----------------------------------------------------------------------
# one seeded mutation per semantic (equivalence) rule
# ----------------------------------------------------------------------

def test_equiv_registers_catches_tampered_immediate():
    original = seg([
        Instruction(Op.ADDI, rd=9, rs=8, imm=4),
        Instruction(Op.ADDI, rd=10, rs=9, imm=4),
    ])
    optimized = original.clone()
    optimized.instrs[1].rs = 8
    optimized.instrs[1].imm = 12          # should be 8
    optimized.instrs[1].reassociated = True
    assert_exactly(check(original, optimized), "equiv-registers")


def test_equiv_memory_catches_changed_store_value():
    original = seg([Instruction(Op.SW, rs=9, rt=8, imm=0)])
    optimized = original.clone()
    optimized.instrs[0].rt = 11           # different live-in value
    assert_exactly(check(original, optimized), "equiv-memory")


def test_equiv_branches_catches_changed_condition_operand():
    branch = Instruction(Op.BEQ, rs=8, rt=0, imm=8, pc=0x1000)
    original = seg(
        [branch, Instruction(Op.ADDI, rd=9, rs=0, imm=1)],
        branches=[BranchInfo(0, 0x1000, direction=False,
                             promoted=False)])
    optimized = original.clone()
    optimized.instrs[0].rs = 11           # different live-in register
    assert_exactly(check(original, optimized), "equiv-branches")


def test_in_place_mutation_is_still_checked():
    """An unchanged rewrite skips the equivalence check, but unchanged
    means every entry's fields, not the segment's rewrite marks: an
    entry mutated in place, without ``TraceSegment.rewrite``, is still
    evaluated and reported."""
    original = seg([
        Instruction(Op.ADDI, rd=9, rs=8, imm=4),
        Instruction(Op.ADDI, rd=10, rs=9, imm=4),
    ])
    untouched = original.clone()
    untouched.slots = [1, 0]              # placement moves slots only
    assert check(original, untouched,
                 config=OptimizationConfig.none()) == []
    optimized = original.clone()
    optimized.instrs[1].imm = 8           # no rewrite() call
    assert not optimized.rewritten
    assert_exactly(check(original, optimized), "equiv-registers")


# ----------------------------------------------------------------------
# the catalogue
# ----------------------------------------------------------------------

def test_rule_registry_catalogue():
    """Every rule has one severity (only a missed move warns), the
    structural rules run in catalogue order, and
    ``docs/verification.md``'s table describes exactly these rules."""
    structural = ["def-before-use", "move-marking", "scale-shift-limit",
                  "scale-provenance", "placement-order",
                  "mem-branch-order", "branch-preserved", "guard-sound",
                  "imm-encodable", "pass-surface", "unmarked-move"]
    semantic = ["equiv-registers", "equiv-memory", "equiv-branches"]
    assert list(SEVERITY) == structural + semantic
    assert [rule.__name__ for rule in STRUCTURAL] == [
        "_check_" + rule_id.replace("-", "_") for rule_id in structural]
    assert {rule_id for rule_id, severity in SEVERITY.items()
            if severity != ERROR} == {"unmarked-move"}
    doc = Path(__file__).parent.parent / "docs" / "verification.md"
    rows = re.findall(r"^\| `([a-z-]+)` \|", doc.read_text(), re.M)
    assert rows == structural + semantic
