"""Trace segment and trace cache tests."""

import copy
import dataclasses

import pytest

from repro.errors import ConfigError, SegmentError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.tracecache.cache import TraceCache, TraceCacheConfig
from repro.tracecache.segment import BranchInfo, TraceSegment
from tests.helpers import record_policy_hooks


def make_segment(start_pc=0x1000, length=4, branch_at=None,
                 promoted=False, direction=True, terminator=None,
                 pc_at=None):
    """A straight-line segment from *start_pc*, with entries moved to
    the pcs *pc_at* names (``{index: pc}``, another path)."""
    instrs = []
    branches = []
    for idx in range(length):
        pc = (pc_at or {}).get(idx, start_pc + 4 * idx)
        if branch_at is not None and idx in branch_at:
            instr = Instruction(Op.BEQ, rs=1, rt=2, imm=8, pc=pc)
            branches.append(BranchInfo(idx, pc, direction, promoted))
        elif terminator is not None and idx == length - 1:
            instr = Instruction(terminator, rs=31, pc=pc)
        else:
            instr = Instruction(Op.ADDI, rd=3, rs=3, imm=1, pc=pc)
        instrs.append(instr)
    return TraceSegment(start_pc=start_pc, instrs=instrs, branches=branches)


# --- segment invariants ---------------------------------------------------

def test_valid_segment_passes():
    make_segment().validate()


def test_empty_segment_rejected():
    seg = TraceSegment(start_pc=0x1000, instrs=[])
    with pytest.raises(SegmentError):
        seg.validate()


def test_oversized_segment_rejected():
    seg = make_segment(length=17)
    with pytest.raises(SegmentError):
        seg.validate(max_instrs=16)


def test_too_many_unpromoted_branches_rejected():
    seg = make_segment(length=8, branch_at={1, 3, 5, 7})
    with pytest.raises(SegmentError):
        seg.validate(max_cond_branches=3)


def test_promoted_branches_do_not_count():
    """Promotion frees predictor slots: the 3-branch limit applies to
    unpromoted conditional branches only (paper §3)."""
    seg = make_segment(length=8, branch_at={1, 3, 5, 7}, promoted=True)
    seg.validate(max_cond_branches=3)
    assert seg.unpromoted_branch_count == 0


def test_terminator_must_be_last():
    instrs = [Instruction(Op.JR, rs=31, pc=0x1000),
              Instruction(Op.NOP, pc=0x1004)]
    seg = TraceSegment(start_pc=0x1000, instrs=instrs)
    with pytest.raises(SegmentError):
        seg.validate()


def test_terminator_as_last_is_fine():
    make_segment(length=4, terminator=Op.JR).validate()


def test_start_pc_mismatch_rejected():
    seg = make_segment()
    seg.start_pc = 0x2000
    with pytest.raises(SegmentError):
        seg.validate()


def test_slot_permutation_enforced():
    seg = make_segment(length=4)
    seg.slots = [0, 0, 1, 2]
    with pytest.raises(SegmentError):
        seg.validate()


def test_branch_record_consistency_enforced():
    seg = make_segment(length=4)
    seg.branches = [BranchInfo(0, 0x1000, True, False)]  # not a branch
    with pytest.raises(SegmentError):
        seg.validate()


def test_default_slots_identity():
    seg = make_segment(length=5)
    assert seg.slots == [0, 1, 2, 3, 4]


def test_path_key_is_pc_sequence():
    seg = make_segment(length=3)
    assert seg.path_key == (0x1000, 0x1004, 0x1008)


def test_optimized_counts():
    seg = make_segment(length=4)
    seg.instrs[0].move_flag = True
    seg.instrs[1].reassociated = True
    counts = seg.optimized_counts()
    assert counts == {"moves": 1, "reassoc": 1, "scaled": 0, "any": 2}


def test_listing_mentions_slots():
    seg = make_segment(length=2)
    assert "slot=" in seg.listing()


# --- trace cache -----------------------------------------------------------

def make_tc(num_sets=16, assoc=2, policy="lru"):
    return TraceCache(TraceCacheConfig(num_sets=num_sets, assoc=assoc,
                                       policy=policy))


def test_config_validation():
    with pytest.raises(ConfigError):
        TraceCacheConfig(num_sets=15)
    with pytest.raises(ConfigError):
        TraceCacheConfig(assoc=0)
    assert TraceCacheConfig().num_lines == 2048


def test_lookup_miss_then_hit():
    tc = make_tc()
    assert tc.lookup(0x1000, now=0) is None
    tc.insert(make_segment(0x1000), now=0)
    assert tc.lookup(0x1000, now=1) is not None
    assert tc.stats.lookups == 2 and tc.stats.hits == 1


def test_fill_latency_delays_visibility():
    """A segment filled at cycle 10 with 5-cycle fill latency is not
    visible until cycle 15 — the mechanism behind Figure 8."""
    tc = make_tc()
    tc.insert(make_segment(0x1000), now=10, fill_latency=5)
    assert tc.lookup(0x1000, now=14) is None
    assert tc.lookup(0x1000, now=15) is not None


def test_same_path_insert_replaces_content():
    """Re-inserting the same path replaces the line with fresh content
    and a fresh fill time (content may differ, e.g. promotion state);
    dedup of *identical* rebuilds is the fill unit's job, via
    refresh()."""
    tc = make_tc()
    tc.insert(make_segment(0x1000), now=0)
    tc.insert(make_segment(0x1000), now=100, fill_latency=50)
    assert tc.stats.fills == 2
    assert tc.lookup(0x1000, now=1) is None       # re-fill in flight
    assert tc.lookup(0x1000, now=150) is not None
    assert tc.resident_segments() == 1


def test_path_associativity_keeps_both_paths():
    tc = make_tc()
    taken = make_segment(0x1000, branch_at={1}, direction=True)
    fallthrough = make_segment(0x1000, branch_at={1}, direction=False,
                               pc_at={2: 0x1100})   # another continuation
    tc.insert(taken, now=0)
    tc.insert(fallthrough, now=0)
    assert tc.stats.fills == 2
    assert tc.probe(0x1000, taken.path_key) is taken
    assert tc.probe(0x1000, fallthrough.path_key) is fallthrough


def test_chooser_selects_agreeing_path():
    tc = make_tc()
    taken = make_segment(0x1000, branch_at={1}, direction=True)
    fallthrough = make_segment(0x1000, branch_at={1}, direction=False,
                               pc_at={2: 0x1100})
    tc.insert(taken, now=0)
    tc.insert(fallthrough, now=0)
    picked = tc.lookup(0x1000, now=1,
                       chooser=lambda seg: seg.branches[0].direction)
    assert picked.branches[0].direction is True
    picked = tc.lookup(0x1000, now=1,
                       chooser=lambda seg: not seg.branches[0].direction)
    assert picked.branches[0].direction is False


def test_lru_eviction_within_set():
    tc = make_tc(num_sets=1, assoc=2)
    tc.insert(make_segment(0x1000), now=0)
    tc.insert(make_segment(0x2000), now=0)
    tc.lookup(0x1000, now=1)                 # refresh 0x1000
    tc.insert(make_segment(0x3000), now=0)   # evicts 0x2000
    assert tc.probe(0x1000) is not None
    assert tc.probe(0x2000) is None
    assert tc.probe(0x3000) is not None


def test_probe_without_path_key_returns_mru_match():
    """``probe(pc)`` must agree with ``lookup``'s tie-break: among
    resident segments starting at *pc*, the most recently used wins —
    not the oldest-inserted one."""
    tc = make_tc()
    taken = make_segment(0x1000, branch_at={1}, direction=True)
    fallthrough = make_segment(0x1000, branch_at={1}, direction=False,
                               pc_at={2: 0x1100})
    tc.insert(taken, now=0)
    tc.insert(fallthrough, now=0)
    # fallthrough was installed last, hence is MRU.
    assert tc.probe(0x1000) is tc.probe(0x1000, fallthrough.path_key)
    # Refreshing the taken path makes it MRU; probe must follow.
    assert tc.refresh(0x1000, taken.path_key, taken.build_promo)
    assert tc.probe(0x1000) is tc.probe(0x1000, taken.path_key)
    # lookup's equal-score tie-break agrees with probe's answer.
    assert tc.lookup(0x1000, now=1, chooser=lambda seg: 1) \
        is tc.probe(0x1000, taken.path_key)


def _cache_state(tc):
    """Everything a refresh may change: the recency order of every
    set, the policy's metadata (TRRIP's RRPVs and reuse history) and
    the stats."""
    return ({index: list(entries) for index, entries in tc._sets.items()},
            copy.deepcopy(vars(tc.policy)), dataclasses.asdict(tc.stats))


def _two_line_set(policy):
    """A one-set, two-way cache holding a line with one unpromoted
    branch at 0x1000 (the LRU way) and a plain line at 0x2000."""
    tc = make_tc(num_sets=1, assoc=2, policy=policy)
    seg_a = make_segment(0x1000, branch_at={1})
    seg_a.build_promo = (False,)
    tc.insert(seg_a, now=0)
    tc.insert(make_segment(0x2000), now=0)
    return tc, seg_a


@pytest.mark.parametrize("policy", ["lru", "trrip"])
def test_refresh_match_moves_line_to_mru(policy, monkeypatch):
    """A resident line of the same path and promotion state is kept
    hot instead of rebuilt: it becomes MRU (so the next fill evicts
    the other way), the policy sees one hit and one refresh counts."""
    record_policy_hooks(monkeypatch, policy)
    tc, seg_a = _two_line_set(policy)
    assert tc.refresh(0x1000, seg_a.path_key, (False,))
    assert tc.policy.hits == [(0x1000, seg_a.path_key)]
    assert tc.stats.refreshes == 1
    assert list(tc._sets[0])[-1] == (0x1000, seg_a.path_key)
    tc.insert(make_segment(0x3000), now=0)
    assert tc.probe(0x1000) is not None
    assert tc.probe(0x2000) is None
    assert tc.probe(0x3000) is not None


@pytest.mark.parametrize("policy", ["lru", "trrip"])
def test_refresh_promotion_mismatch_changes_nothing(policy):
    """A line whose branch promotion state changed must be rebuilt:
    refresh declines and leaves order, policy state and stats as they
    were."""
    tc, seg_a = _two_line_set(policy)
    before = _cache_state(tc)
    assert not tc.refresh(0x1000, seg_a.path_key, (True,))
    assert _cache_state(tc) == before


@pytest.mark.parametrize("policy", ["lru", "trrip"])
def test_refresh_absent_key(policy):
    tc, seg_a = _two_line_set(policy)
    before = _cache_state(tc)
    assert not tc.refresh(0x3000, (0x3000,), ())
    # same start pc, another path
    assert not tc.refresh(0x1000, seg_a.path_key[:2], (False,))
    assert _cache_state(tc) == before

