"""SimConfig construction, its trip to a worker and its fingerprint form.

A config is checked where it is built: every config's own constructor
raises ConfigError on a field of the wrong type or an unrunnable
value. The worker pool receives each job's config pickled inside its
JobSpec, so every field must survive that trip exactly; the exec
layer's job fingerprint is a hash of ``to_dict()``, so every field —
top-level and nested — must reach that form.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

from hypothesis import given, settings, strategies as st
import pytest

from repro.branch.predictor import PredictorConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.core.config import SimConfig
from repro.errors import ConfigError
from repro.exec.fingerprint import canonical_json, job_fingerprint
from repro.exec.grid import JobSpec
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
            predication=True,
            reassoc_cross_flow_only=False, max_scale_shift=2),
        verify_fill=True,
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


def _round_trip(config: SimConfig) -> SimConfig:
    """*config* as a pool worker receives it: pickled in its JobSpec."""
    job = pickle.loads(pickle.dumps(JobSpec("compress", config, "x")))
    return job.config


def test_round_trip_every_field():
    config = _non_default_config()
    rebuilt = _round_trip(config)
    assert rebuilt == config
    _assert_every_field_differs(rebuilt)
    assert (job_fingerprint(rebuilt, "compress", 0.5)
            == job_fingerprint(config, "compress", 0.5))


def test_round_trip_survives_json_hop():
    """The fingerprint form is plain JSON: a hop through ``json`` gives
    back the same canonical text, with tuples written as lists."""
    config = _non_default_config()
    hopped = json.loads(json.dumps(config.to_dict()))
    assert hopped["predictor"]["pht_entries"] == [4096, 1024, 512]
    assert canonical_json(hopped) == canonical_json(config.to_dict())
    # A second trip is byte-stable (fingerprinting relies on this).
    assert (canonical_json(_round_trip(config).to_dict())
            == canonical_json(hopped))


def test_defaults_round_trip():
    config = SimConfig.paper()
    assert _round_trip(config) == config


def test_policy_round_trips_both_knobs():
    config = SimConfig(
        trace_cache=TraceCacheConfig(policy="trrip"),
        hierarchy=HierarchyConfig(policy="srrip"))
    rebuilt = _round_trip(config)
    assert rebuilt.trace_cache.policy == "trrip"
    assert rebuilt.hierarchy.policy == "srrip"
    assert rebuilt == config


def _field_paths(config: SimConfig):
    """``(owner names, field name)`` of every field of *config*, nested
    configs' fields included."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            for nested in dataclasses.fields(value):
                yield (f.name,), nested.name
        else:
            yield (), f.name


def test_every_field_changes_fingerprint():
    """Each field of the fixture, set alone on a default config, moves
    the job fingerprint: ``to_dict`` drops no field. (The field is set
    past the constructor: a lone change may be unrunnable, but the
    fingerprint must still see it.)"""
    source = _non_default_config()
    default_fp = job_fingerprint(SimConfig(), "compress", 0.5)
    seen = set()
    for owners, name in _field_paths(source):
        config = SimConfig()
        target, value = config, source
        for owner in owners:
            target, value = getattr(target, owner), getattr(value, owner)
        setattr(target, name, getattr(value, name))
        fp = job_fingerprint(config, "compress", 0.5)
        assert fp != default_fp, f"{'.'.join((*owners, name))} not hashed"
        assert fp not in seen
        seen.add(fp)


def test_invalid_values_still_validated():
    with pytest.raises(ConfigError):
        SimConfig(fill_latency=0)


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError, match="replacement policy"):
        TraceCacheConfig(policy="plru")
    with pytest.raises(ConfigError, match="replacement policy"):
        HierarchyConfig(policy="random")


def test_retired_memo_knobs_rejected():
    """The timing-memo knobs are gone; a config naming one fails
    loudly instead of silently running a different machine."""
    for knob in ("timing_memo", "memo_capacity", "replay_shadow_every",
                 "memo_breakeven", "memo_breakeven_window"):
        with pytest.raises(TypeError, match=knob):
            SimConfig(**{knob: 0})


def test_unknown_nested_key_rejected():
    """The fill unit's retired CSE and dead-code passes have no knob."""
    for knob in ("cse", "dead_code"):
        with pytest.raises(TypeError, match=knob):
            OptimizationConfig(**{knob: True})


def _build(path: str, value):
    """The config that *path* (``field`` or ``nested.field``) names,
    built with that field set to *value* and the rest at defaults."""
    *owners, name = path.split(".")
    owner = type(getattr(SimConfig(), owners[0])) if owners else SimConfig
    return owner(**{name: value})


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
def test_config_rejects_wrong_field_types(path, value):
    """A field of the wrong type is a ConfigError, never a raw
    TypeError and never silently accepted."""
    with pytest.raises(ConfigError, match=path.split(".")[-1]):
        _build(path, value)


#: what a mutation may put in a field: None, booleans, ints (negative
#: and huge ones too), floats, strings, lists and dicts
_MUTANTS = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 70000),
    st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=True),
    st.text(max_size=4), st.lists(st.integers(-4, 70000), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _swap_type(value):
    """The same value in a neighbouring type (int -> float, str or
    bool; bool -> int or str; a tuple -> list, shorter tuple, scalar
    or strings; a nested config's arguments -> list, None or int)."""
    if isinstance(value, bool):
        return st.sampled_from([int(value), str(value).lower()])
    if isinstance(value, int):
        return st.sampled_from([float(value), str(value), bool(value),
                                -value])
    if isinstance(value, tuple):
        return st.sampled_from([list(value), value[:1], len(value),
                                tuple(str(item) for item in value)])
    if isinstance(value, dict):
        return st.sampled_from([list(value), None, 0])
    return st.sampled_from([None, 0, [value]])


@st.composite
def mutated_arguments(draw):
    """``SimConfig.paper(...)``'s constructor arguments, each nested
    config as a dict of its own arguments, with one to four fields,
    top-level or nested, replaced."""
    opts = draw(st.sampled_from([OptimizationConfig.none(),
                                 OptimizationConfig.all(),
                                 OptimizationConfig.extended()]))
    config = SimConfig.paper(opts)
    arguments = {f.name: getattr(config, f.name)
                 for f in dataclasses.fields(config)}
    nested = {name: type(value) for name, value in arguments.items()
              if dataclasses.is_dataclass(value)}
    for name in nested:
        arguments[name] = {f.name: getattr(arguments[name], f.name)
                           for f in dataclasses.fields(arguments[name])}
    paths = [(name,) for name in arguments] + [
        (name, inner) for name in nested for inner in arguments[name]]
    for _ in range(draw(st.integers(1, 4))):
        *owners, name = draw(st.sampled_from(paths))
        if owners and owners[0] not in nested:
            continue                # its owner was replaced already
        target = arguments[owners[0]] if owners else arguments
        if not owners:
            nested.pop(name, None)  # a replaced config goes in as it is
        if draw(st.booleans()):
            target[name] = draw(_swap_type(target[name]))
        else:
            target[name] = draw(_MUTANTS)
    return arguments, nested


@given(drawn=mutated_arguments())
@settings(max_examples=400, deadline=None)
def test_constructor_fuzz_returns_config_or_raises_config_error(drawn):
    """Whatever its fields hold, building a config returns one (which
    can be fingerprinted) or raises ConfigError, nothing else."""
    arguments, nested = drawn
    try:
        for name, cls in nested.items():
            arguments[name] = cls(**arguments[name])
        config = SimConfig(**arguments)
    except ConfigError:
        return
    assert isinstance(config, SimConfig)
    canonical_json(config.to_dict())
