"""Branch prediction complex tests: counters, PHTs, bias/promotion,
RAS, BTB, and the combined multiple-branch predictor."""

import pytest

from repro.branch.bias import BiasTable
from repro.branch.btb import BranchTargetBuffer
from repro.branch.counters import SaturatingCounterArray
from repro.branch.pht import GlobalHistory, PatternHistoryTable
from repro.branch.predictor import MultiBranchPredictor, PredictorConfig
from repro.branch.ras import ReturnAddressStack
from repro.errors import ConfigError


# --- saturating counters -------------------------------------------------

def test_counters_start_weakly_taken():
    array = SaturatingCounterArray(16)
    assert array.value(0) == 2
    assert array.predict(0) is True


def test_counter_training():
    array = SaturatingCounterArray(16)
    array.update(5, False)
    array.update(5, False)
    assert array.predict(5) is False
    array.update(5, True)
    array.update(5, True)
    assert array.predict(5) is True


def test_update_returns_the_prior_prediction():
    """``update`` returns what ``predict`` returned just before it, over
    every counter state and outcome."""
    array = SaturatingCounterArray(16)
    outcomes = [True, True, False, True, False, False, False, True] * 3
    for key, taken in enumerate(outcomes):
        key %= 3
        expected = array.predict(key)
        assert array.update(key, taken) is expected


def test_update_cond_returns_the_prediction():
    predictor = MultiBranchPredictor(PredictorConfig().scaled(256))
    for taken in [False, False, True, False, True, True, True]:
        expected = predictor.predict_cond(0x3000, 1)
        assert predictor.update_cond(0x3000, 1, taken) is expected


def test_counter_saturation():
    array = SaturatingCounterArray(16)
    for _ in range(10):
        array.update(3, True)
    assert array.value(3) == 3
    for _ in range(10):
        array.update(3, False)
    assert array.value(3) == 0


def test_counter_index_folding():
    array = SaturatingCounterArray(16)
    array.update(16 + 3, False)   # aliases entry 3
    assert array.value(3) == 1


def test_counter_config_validation():
    with pytest.raises(ConfigError):
        SaturatingCounterArray(12)
    with pytest.raises(ConfigError):
        SaturatingCounterArray(16, bits=0)


def test_counter_reset():
    array = SaturatingCounterArray(8)
    array.update(0, True)
    array.reset()
    assert array.value(0) == 2


# --- PHT / history -------------------------------------------------------

def test_pht_learns_pattern():
    pht = PatternHistoryTable(256, history_bits=4)
    for _ in range(4):
        pht.update(0x1000, 0b1010, True)
    assert pht.predict(0x1000, 0b1010) is True
    # Different history maps to a different counter.
    for _ in range(4):
        pht.update(0x1000, 0b0101, False)
    assert pht.predict(0x1000, 0b0101) is False
    assert pht.predict(0x1000, 0b1010) is True


def test_global_history_shifts_and_masks():
    hist = GlobalHistory(4)
    for outcome in (True, False, True, True):
        hist.push(outcome)
    assert hist.value == 0b1011
    hist.push(False)
    assert hist.value == 0b0110  # oldest bit fell off
    hist.reset()
    assert hist.value == 0


# --- bias table / promotion ----------------------------------------------

def test_promotion_after_threshold_consecutive():
    bias = BiasTable(64, threshold=4)
    for _ in range(3):
        bias.record(0x100, True)
    assert not bias.is_promoted(0x100)
    bias.record(0x100, True)
    assert bias.is_promoted(0x100)
    assert bias.promoted_direction(0x100) is True
    assert bias.promotions == 1


def test_direction_change_resets_run_and_demotes():
    bias = BiasTable(64, threshold=3)
    for _ in range(3):
        bias.record(0x100, False)
    assert bias.is_promoted(0x100)
    bias.record(0x100, True)
    assert not bias.is_promoted(0x100)
    assert bias.demotions == 1
    # run restarts in the new direction
    bias.record(0x100, True)
    bias.record(0x100, True)
    assert bias.is_promoted(0x100)


def test_bias_aliasing_is_possible():
    """The table is tagless (a cost constraint, not an idealization):
    two branches 64 entries apart share state."""
    bias = BiasTable(64, threshold=2)
    bias.record(0x1000, True)
    bias.record(0x1000 + 64 * 4, True)
    assert bias.is_promoted(0x1000)


def test_bias_config_validation():
    with pytest.raises(ConfigError):
        BiasTable(63)
    with pytest.raises(ConfigError):
        BiasTable(64, threshold=0)


# --- RAS -----------------------------------------------------------------

def test_ras_lifo_order():
    ras = ReturnAddressStack(4)
    ras.push(0x100)
    ras.push(0x200)
    assert ras.pop() == 0x200
    assert ras.pop() == 0x100
    assert ras.pop() is None


def test_ras_overflow_drops_oldest():
    ras = ReturnAddressStack(2)
    ras.push(1)
    ras.push(2)
    ras.push(3)
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None   # 1 was lost to overflow


# --- BTB -----------------------------------------------------------------

def test_btb_miss_then_hit():
    btb = BranchTargetBuffer(64)
    assert btb.predict(0x1000) is None
    btb.update(0x1000, 0x2000)
    assert btb.predict(0x1000) == 0x2000


def test_btb_tag_disambiguates_aliases():
    btb = BranchTargetBuffer(64)
    btb.update(0x1000, 0x2000)
    aliased = 0x1000 + 64 * 4
    assert btb.predict(aliased) is None     # tag mismatch
    btb.update(aliased, 0x3000)
    assert btb.predict(0x1000) is None      # evicted by alias


# --- combined predictor ---------------------------------------------------

def test_skewed_table_sizes_default():
    predictor = MultiBranchPredictor()
    sizes = [pht.counters.entries for pht in predictor.phts]
    assert sizes == [65536, 16384, 8192]
    assert predictor.max_dynamic_branches == 3


def test_predictor_learns_biased_branch():
    predictor = MultiBranchPredictor(PredictorConfig().scaled(256))
    for _ in range(8):
        predictor.update_cond(0x1000, 0, True)
    assert predictor.predict_cond(0x1000, 0) is True


def test_per_position_tables_are_independent():
    predictor = MultiBranchPredictor(PredictorConfig().scaled(256))
    # Train position 0 toward taken; position 2's table is untouched
    # state for this pc/history (both start weakly taken though), so
    # train position 2 toward not-taken and check no interference.
    for _ in range(8):
        predictor.update_cond(0x2000, 0, True)
    # history now polluted; reset for a clean comparison
    predictor.history.reset()
    for _ in range(8):
        predictor.update_cond(0x2000, 2, False)
        predictor.history.reset()
    assert predictor.predict_cond(0x2000, 2) is False


def test_return_prediction_via_ras():
    predictor = MultiBranchPredictor(PredictorConfig().scaled(256))
    predictor.note_call(0x1004)
    assert predictor.predict_indirect(0x5000, is_return=True) == 0x1004


def test_indirect_prediction_via_btb():
    predictor = MultiBranchPredictor(PredictorConfig().scaled(256))
    assert predictor.predict_indirect(0x5000, is_return=False) is None
    predictor.train_indirect(0x5000, 0x7000)
    assert predictor.predict_indirect(0x5000, is_return=False) == 0x7000


def test_record_outcome_feeds_bias():
    config = PredictorConfig().scaled(256)
    config.promote_threshold = 2
    predictor = MultiBranchPredictor(config)
    predictor.record_outcome(0x100, True)
    predictor.record_outcome(0x100, True)
    assert predictor.bias.is_promoted(0x100)
