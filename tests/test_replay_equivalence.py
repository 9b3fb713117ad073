"""Golden cycle counts: the timing model's acceptance matrix.

Every one of the fifteen workloads runs under the four paper machine
configurations (on the small test machine, scale 0.2) and must
reproduce its pinned cycle count exactly; the paper-machine seed
anchors (with their trace-cache and fill-unit reuse profile, under
each replacement policy) and the three replacement policies are
pinned the same way, and so is an evicting column: every workload
under each policy on a machine small enough that its caches evict.
Any drift means the timing semantics changed. There is one path
through the engine, so an observed run (spans, events and cycle
attribution) must also agree with an unobserved one on every counter.

The test names date from when this matrix compared runs with the
(since retired) segment-level timing memo against the plain engine;
they are kept so results stay comparable across the project history.
Each cell now checks the single engine path against its pinned value.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine import run_program
from repro.telemetry import Telemetry
from tests.helpers import evicting_config

#: the four paper machines the matrix runs: measured baseline, a
#: single-optimization machine, the combined paper configuration and
#: the extended pass set.
PAPER_CONFIGS = {
    "baseline": OptimizationConfig.none,
    "moves": lambda: OptimizationConfig.only("moves"),
    "all": OptimizationConfig.all,
    "extended": OptimizationConfig.extended,
}

#: cycles at scale 0.2 on ``SimConfig.tiny``, per PAPER_CONFIGS order
GOLDEN_CYCLES = {
    "compress": (7443, 7276, 7054, 6756),
    "gcc": (5283, 4845, 4613, 4473),
    "ghostscript": (3608, 3408, 3235, 3235),
    "gnuchess": (6255, 6074, 5155, 5155),
    "gnuplot": (4669, 4170, 4100, 4100),
    "go": (6209, 6101, 5458, 5458),
    "ijpeg": (7925, 7956, 8036, 8037),
    "li": (7555, 6456, 5736, 5736),
    "m88ksim": (7309, 6996, 5705, 5705),
    "perl": (7802, 7249, 6674, 6654),
    "pgp": (4478, 4138, 4107, 4107),
    "python": (6667, 6232, 5782, 5788),
    "sim-outorder": (4759, 4729, 4601, 4324),
    "tex": (6027, 5685, 5139, 5195),
    "vortex": (3864, 3323, 3239, 3239),
}

#: cycles at scale 0.15 on the evicting ``tiny-evict`` machine (the
#: paper machine with a 16-set trace cache and 1 KiB L1I/L1D, combined
#: optimizations), per replacement policy in EVICTING_POLICIES order
EVICTING_POLICIES = ("lru", "srrip", "trrip")
EVICTING_CYCLES = {
    "compress": (5739, 5735, 5721),
    "gcc": (3409, 3396, 3419),
    "ghostscript": (2523, 2523, 2404),
    "gnuchess": (4432, 4426, 4459),
    "gnuplot": (2709, 2630, 2566),
    "go": (3721, 3511, 3655),
    "ijpeg": (5356, 5399, 5410),
    "li": (4280, 4302, 4265),
    "m88ksim": (5701, 5701, 5574),
    "perl": (5031, 5010, 4974),
    "pgp": (2210, 2157, 2156),
    "python": (4622, 4626, 4646),
    "sim-outorder": (3265, 3276, 3336),
    "tex": (3570, 3472, 3507),
    "vortex": (2693, 2229, 2393),
}

_PROGRAMS: dict = {}
_TRACES: dict = {}


def _program(name: str, scale: float):
    key = (name, scale)
    if key not in _PROGRAMS:
        _PROGRAMS[key] = workloads.build(name, scale=scale)
    return _PROGRAMS[key]


def _trace(name: str, scale: float):
    key = (name, scale)
    if key not in _TRACES:
        _TRACES[key] = run_program(_program(name, scale))
    return _TRACES[key]


def test_matrix_covers_every_workload():
    assert sorted(GOLDEN_CYCLES) == sorted(workloads.names())
    assert sorted(EVICTING_CYCLES) == sorted(workloads.names())


@pytest.mark.parametrize("config_name", list(PAPER_CONFIGS))
@pytest.mark.parametrize("bench", workloads.names())
def test_memo_bit_identical_every_workload(bench, config_name):
    config = SimConfig.tiny(PAPER_CONFIGS[config_name]())
    result = Engine(config).run(_trace(bench, 0.2), benchmark=bench)
    column = list(PAPER_CONFIGS).index(config_name)
    assert result.cycles == GOLDEN_CYCLES[bench][column]


#: the paper machine with all four optimizations at scale 0.5: cycles,
#: instructions, trace-cache lookups and hits, and the fill unit's
#: built and deduped segments. No policy evicts anything here.
SEED_PINS = {
    "compress": (16344, 23152, 2989, 2935, 94, 1432),
    "li": (13709, 31954, 3111, 2956, 80, 2130),
}


@pytest.mark.parametrize("policy", EVICTING_POLICIES)
@pytest.mark.parametrize("bench", list(SEED_PINS))
def test_seed_cycles_preserved_with_memo(bench, policy):
    """The seed anchors and their reuse profile, under every policy
    with the program passed so TRRIP's static hints install."""
    config = SimConfig.paper(OptimizationConfig.all())
    config = dataclasses.replace(
        config,
        trace_cache=dataclasses.replace(config.trace_cache,
                                        policy=policy),
        hierarchy=dataclasses.replace(config.hierarchy, policy=policy))
    engine = Engine(config)
    result = engine.run(_trace(bench, 0.5), benchmark=bench,
                        program=_program(bench, 0.5))
    tc = engine.trace_cache.stats
    fill = engine.fill_unit.stats
    assert (result.cycles, result.instructions, tc.lookups, tc.hits,
            fill.segments_built,
            fill.segments_deduped) == SEED_PINS[bench]
    assert (tc.evictions, tc.dead_evictions,
            engine.hierarchy.l1d.stats.evictions,
            engine.hierarchy.l2.stats.evictions) == (0, 0, 0, 0)


@pytest.mark.parametrize("policy", ["lru", "srrip", "trrip"])
@pytest.mark.parametrize("bench", ["compress", "li"])
def test_memo_bit_identical_under_every_policy(bench, policy):
    """The test machine's caches never evict these workloads, so every
    policy (TRRIP with its static hints installed) gives the ``all``
    column's cycles."""
    config = SimConfig.tiny(OptimizationConfig.all())
    config = dataclasses.replace(
        config,
        trace_cache=dataclasses.replace(config.trace_cache,
                                        policy=policy),
        hierarchy=dataclasses.replace(config.hierarchy, policy=policy))
    result = Engine(config).run(_trace(bench, 0.2), benchmark=bench,
                                program=_program(bench, 0.2))
    assert result.cycles == GOLDEN_CYCLES[bench][2]


@pytest.mark.parametrize("policy", EVICTING_POLICIES)
@pytest.mark.parametrize("bench", workloads.names())
def test_evicting_column(bench, policy):
    """Every workload at scale 0.15 on the evicting machine, with the
    program passed so TRRIP's static hints install."""
    config = evicting_config(OptimizationConfig.all(), policy)
    result = Engine(config).run(_trace(bench, 0.15), benchmark=bench,
                                program=_program(bench, 0.15))
    column = EVICTING_POLICIES.index(policy)
    assert result.cycles == EVICTING_CYCLES[bench][column]


@pytest.mark.parametrize("bench", ["compress", "li"])
def test_observed_run_matches_plain_run(bench):
    """Watching a run does not change it: with spans, events and cycle
    attribution on, cycles, counters and the telemetry snapshot equal
    an unobserved run's, and the attribution sums to the cycles."""
    trace = _trace(bench, 0.2)
    config = SimConfig.tiny(OptimizationConfig.all())
    plain = Engine(config).run(trace, benchmark=bench)
    telemetry = Telemetry(spans=True)
    telemetry.attach_memory()
    observed = Engine(config, telemetry=telemetry).run(trace,
                                                       benchmark=bench)
    assert sum(observed.attribution.values()) == observed.cycles
    observed.attribution = plain.attribution
    assert dataclasses.asdict(observed) == dataclasses.asdict(plain)
