"""SimConfig.to_dict / from_dict round-trip.

The exec layer's job fingerprint is a hash of ``to_dict()`` and the
worker pool reconstructs configs from it across process boundaries, so
every field — top-level and nested — must survive the trip exactly.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.branch.predictor import PredictorConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.fillunit.opts.base import OptimizationConfig
from repro.tracecache.cache import TraceCacheConfig


def _non_default_config() -> SimConfig:
    """A valid SimConfig with every field away from its default."""
    return SimConfig(
        fetch_width=8,
        issue_width=8,
        retire_width=8,
        max_blocks_per_cycle=2,
        max_checkpoints=16,
        ic_fetch_width=4,
        num_clusters=2,
        cluster_size=2,
        rs_per_fu=16,
        cross_cluster_penalty=2,
        window_size=128,
        mispredict_redirect=2,
        predictor=PredictorConfig(
            pht_entries=(4096, 1024, 512), history_bits=10,
            bias_entries=1024, promote_threshold=32, ras_depth=8,
            btb_entries=256),
        model_wrong_path=True,
        hierarchy=HierarchyConfig(
            l1i_size=2048, l1i_assoc=2, l1i_line=16, l1d_size=8192,
            l1d_assoc=2, l1d_line=16, l2_size=131072, l2_assoc=4,
            l2_line=32, l2_latency=8, memory_latency=80,
            policy="srrip"),
        store_forward_window=64,
        trace_cache_enabled=False,
        trace_cache=TraceCacheConfig(
            num_sets=64, assoc=2, max_instrs=8, max_cond_branches=2,
            policy="trrip"),
        trace_packing=False,
        fill_latency=7,
        optimizations=OptimizationConfig(
            moves=True, reassoc=True, scaled_adds=True, placement=True,
            cse=True, dead_code=True, predication=True,
            reassoc_cross_flow_only=False, max_scale_shift=2),
        verify_fill=True,
        verify_each_pass=True,
    )


def _assert_every_field_differs(config: SimConfig) -> None:
    default = SimConfig()
    for f in dataclasses.fields(SimConfig):
        got = getattr(config, f.name)
        if dataclasses.is_dataclass(got):
            for nested in dataclasses.fields(got):
                assert (getattr(got, nested.name)
                        != getattr(getattr(default, f.name),
                                   nested.name)), \
                    f"{f.name}.{nested.name} still default"
        else:
            assert got != getattr(default, f.name), \
                f"{f.name} still default"


def test_fixture_covers_every_field():
    _assert_every_field_differs(_non_default_config())


def test_round_trip_every_field():
    config = _non_default_config()
    rebuilt = SimConfig.from_dict(config.to_dict())
    assert rebuilt == config


def test_round_trip_survives_json_hop():
    config = _non_default_config()
    hopped = json.loads(json.dumps(config.to_dict()))
    rebuilt = SimConfig.from_dict(hopped)
    assert rebuilt == config
    assert isinstance(rebuilt.predictor.pht_entries, tuple)
    # A second trip is byte-stable (fingerprinting relies on this).
    assert rebuilt.to_dict() == config.to_dict()


def test_defaults_round_trip():
    config = SimConfig.paper()
    assert SimConfig.from_dict(config.to_dict()) == config


def test_unknown_top_level_key_rejected():
    payload = SimConfig().to_dict()
    payload["fetch_widht"] = 32
    with pytest.raises(ConfigError, match="fetch_widht"):
        SimConfig.from_dict(payload)


def test_unknown_nested_key_rejected():
    payload = SimConfig().to_dict()
    payload["predictor"]["pht_entires"] = [1, 2, 3]
    with pytest.raises(ConfigError, match="pht_entires"):
        SimConfig.from_dict(payload)


def test_invalid_values_still_validated():
    payload = SimConfig().to_dict()
    payload["fill_latency"] = 0
    with pytest.raises(ConfigError):
        SimConfig.from_dict(payload)


def test_policy_round_trips_both_knobs():
    config = SimConfig(
        trace_cache=TraceCacheConfig(policy="trrip"),
        hierarchy=HierarchyConfig(policy="srrip"))
    rebuilt = SimConfig.from_dict(config.to_dict())
    assert rebuilt.trace_cache.policy == "trrip"
    assert rebuilt.hierarchy.policy == "srrip"
    assert rebuilt == config


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError, match="replacement policy"):
        TraceCacheConfig(policy="plru")
    with pytest.raises(ConfigError, match="replacement policy"):
        HierarchyConfig(policy="random")
    payload = SimConfig().to_dict()
    payload["hierarchy"]["policy"] = "clock"
    with pytest.raises(ConfigError, match="replacement policy"):
        SimConfig.from_dict(payload)


def test_retired_memo_knobs_rejected():
    """The timing-memo knobs are gone; a sweep declaring one fails
    loudly instead of silently running a different machine."""
    for knob in ("timing_memo", "memo_capacity", "replay_shadow_every",
                 "memo_breakeven", "memo_breakeven_window"):
        payload = SimConfig().to_dict()
        payload[knob] = 0
        with pytest.raises(ConfigError, match=knob):
            SimConfig.from_dict(payload)
