"""SimConfig.to_dict / from_dict round-trip.

The exec layer's job fingerprint is a hash of ``to_dict()`` and the
worker pool reconstructs configs from it across process boundaries, so
every field — top-level and nested — must survive the trip exactly.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st
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


@pytest.mark.parametrize("path, value", [
    ("issue_width", "16"),
    ("issue_width", 16.5),
    ("issue_width", True),
    ("verify_fill", "no"),
    ("verify_fill", 0),
    ("trace_cache", None),
    ("optimizations", []),
    ("optimizations.moves", 1),
    ("predictor.pht_entries", [65536, "16384", 8192]),
    ("predictor.pht_entries", 4096),
    ("hierarchy.l1d_size", 4096.0),
], ids=repr)
def test_from_dict_rejects_wrong_field_types(path, value):
    """A field of the wrong type is a ConfigError, never a raw
    TypeError and never silently accepted."""
    payload = SimConfig().to_dict()
    *owners, name = path.split(".")
    target = payload
    for owner in owners:
        target = target[owner]
    target[name] = value
    with pytest.raises(ConfigError, match=name):
        SimConfig.from_dict(payload)


#: what a mutation may put in a field: None, booleans, ints (negative
#: and huge ones too), floats, strings, lists and dicts
_MUTANTS = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 70000),
    st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=True),
    st.text(max_size=4), st.lists(st.integers(-4, 70000), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _swap_type(value):
    """The same value in a neighbouring type (int -> float, str or
    bool; bool -> int or str; a tuple's list -> tuple, scalar or
    strings; a nested config's dict -> list, None or int)."""
    if isinstance(value, bool):
        return st.sampled_from([int(value), str(value).lower()])
    if isinstance(value, int):
        return st.sampled_from([float(value), str(value), bool(value),
                                -value])
    if isinstance(value, list):
        return st.sampled_from([tuple(value), value[:1], len(value),
                                [str(item) for item in value]])
    if isinstance(value, dict):
        return st.sampled_from([list(value), None, 0])
    return st.sampled_from([None, 0, [value]])


@st.composite
def mutated_payloads(draw):
    """``SimConfig.paper(...).to_dict()`` with one to four fields,
    top-level or nested, dropped or replaced."""
    opts = draw(st.sampled_from([OptimizationConfig.none(),
                                 OptimizationConfig.all(),
                                 OptimizationConfig.extended()]))
    payload = SimConfig.paper(opts).to_dict()
    paths = [(name,) for name in payload] + [
        (name, inner) for name, value in payload.items()
        if isinstance(value, dict) for inner in value]
    for _ in range(draw(st.integers(1, 4))):
        *owners, name = draw(st.sampled_from(paths))
        target = payload
        for owner in owners:
            target = target.get(owner)
        if not isinstance(target, dict) or name not in target:
            continue
        action = draw(st.sampled_from(["drop", "swap", "replace"]))
        if action == "drop":
            del target[name]
        elif action == "swap":
            target[name] = draw(_swap_type(target[name]))
        else:
            target[name] = draw(_MUTANTS)
    return payload


@given(payload=mutated_payloads())
@settings(max_examples=400, deadline=None)
def test_from_dict_fuzz_returns_config_or_raises_config_error(payload):
    """Whatever a sweep declaration holds, ``from_dict`` returns a
    config (which round-trips) or raises ConfigError, nothing else."""
    try:
        config = SimConfig.from_dict(payload)
    except ConfigError:
        return
    assert isinstance(config, SimConfig)
    assert SimConfig.from_dict(config.to_dict()) == config
