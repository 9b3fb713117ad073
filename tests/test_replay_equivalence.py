"""Golden cycle counts: the timing model's acceptance matrix.

Every one of the fifteen workloads runs under the four paper machine
configurations (on the small test machine, scale 0.2) and must
reproduce its pinned cycle count exactly; the paper-machine seed
anchors (with their trace-cache and fill-unit reuse profile, under
each replacement policy) and the three replacement policies are
pinned the same way, and so is an evicting column: every workload
under each policy on a machine small enough that its caches evict.
Any drift means the timing semantics changed. There is one path
through the engine, so an observed run (spans and events) must also
agree with an unobserved one on every counter. Every run carries its
cycle attribution: on the matrix, the evicting column and the
no-trace-cache and wrong-path machines it must equal the reference
accountant's (``tests.helpers.ReferenceAccountant``), and every cycle
class of three columns is pinned too.

The test names date from when this matrix compared runs with the
(since retired) segment-level timing memo against the plain engine;
they are kept so results stay comparable across the project history.
Each cell now checks the single engine path against its pinned value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.exec.grid import JobSpec
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry import Telemetry
from repro.telemetry.attribution import CYCLE_CLASSES
from tests.helpers import ReferenceAccountant, evicting_config

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
    "ijpeg": (7925, 7956, 8036, 8036),
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

_TRACES: dict = {}


def _trace(name: str, scale: float):
    """The committed trace of *name* at *scale*; it carries its program,
    so TRRIP's static hints install."""
    key = (name, scale)
    if key not in _TRACES:
        _TRACES[key] = Executor(workloads.build(name, scale=scale)).run()
    return _TRACES[key]


def test_matrix_covers_every_workload():
    assert sorted(GOLDEN_CYCLES) == sorted(workloads.names())
    assert sorted(EVICTING_CYCLES) == sorted(workloads.names())


@pytest.mark.parametrize("config_name", list(PAPER_CONFIGS))
@pytest.mark.parametrize("bench", workloads.names())
def test_memo_bit_identical_every_workload(bench, config_name):
    config = SimConfig.tiny(PAPER_CONFIGS[config_name]())
    engine = Engine(config)
    reference = ReferenceAccountant.attach(engine)
    result = engine.run(_trace(bench, 0.2), benchmark=bench)
    column = list(PAPER_CONFIGS).index(config_name)
    assert result.cycles == GOLDEN_CYCLES[bench][column]
    assert result.attribution == reference.attribution


#: the paper machine with all four optimizations at scale 0.5: cycles,
#: instructions, trace-cache lookups and hits, and the segments the
#: fill unit built (fills) and deduped (refreshes). No policy evicts
#: anything here.
SEED_PINS = {
    "compress": (16344, 23152, 2989, 2935, 94, 1432),
    "li": (13709, 31954, 3111, 2956, 80, 2130),
}


@pytest.mark.parametrize("policy", EVICTING_POLICIES)
@pytest.mark.parametrize("bench", list(SEED_PINS))
def test_seed_cycles_preserved_with_memo(bench, policy):
    """The seed anchors and their reuse profile, under every policy."""
    config = SimConfig.paper(OptimizationConfig.all())
    config = dataclasses.replace(
        config,
        trace_cache=dataclasses.replace(config.trace_cache,
                                        policy=policy),
        hierarchy=dataclasses.replace(config.hierarchy, policy=policy))
    engine = Engine(config)
    result = engine.run(_trace(bench, 0.5), benchmark=bench)
    tc = engine.trace_cache.stats
    assert (result.cycles, result.instructions, tc.lookups, tc.hits,
            tc.fills, tc.refreshes) == SEED_PINS[bench]
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
    result = Engine(config).run(_trace(bench, 0.2), benchmark=bench)
    assert result.cycles == GOLDEN_CYCLES[bench][2]


@pytest.mark.parametrize("policy", EVICTING_POLICIES)
@pytest.mark.parametrize("bench", workloads.names())
def test_evicting_column(bench, policy):
    """Every workload at scale 0.15 on the evicting machine."""
    config = evicting_config(OptimizationConfig.all(), policy)
    engine = Engine(config)
    reference = ReferenceAccountant.attach(engine)
    result = engine.run(_trace(bench, 0.15), benchmark=bench)
    column = EVICTING_POLICIES.index(policy)
    assert result.cycles == EVICTING_CYCLES[bench][column]
    assert result.attribution == reference.attribution


@pytest.mark.parametrize("machine", ["no_trace_cache", "wrong_path"])
@pytest.mark.parametrize("bench", workloads.names())
def test_attribution_matches_reference_off_the_matrix(bench, machine):
    """The two machines the matrix does not run: without a trace cache
    fetch latency is ``fetch_starved``, and the wrong-path model
    pollutes the caches between retirements."""
    config = SimConfig.paper(OptimizationConfig.all())
    if machine == "no_trace_cache":
        config = dataclasses.replace(config, trace_cache_enabled=False)
    else:
        config = dataclasses.replace(config, model_wrong_path=True)
    engine = Engine(config)
    reference = ReferenceAccountant.attach(engine)
    result = engine.run(_trace(bench, 0.1), benchmark=bench)
    assert result.attribution == reference.attribution
    assert sum(result.attribution.values()) == result.cycles
    if machine == "no_trace_cache":
        assert result.attribution["tc_miss"] == 0


def test_service_reproduces_evicting_trrip_column():
    """The execution service installs TRRIP's static hints too: its
    trace carries the program, inline and in a pool worker alike, so
    the service reproduces the engine's evicting TRRIP column."""
    config = evicting_config(OptimizationConfig.all(), "trrip")
    column = EVICTING_POLICIES.index("trrip")
    names = workloads.names()
    inline = ExecutionService(scale=0.15).run_many(
        [JobSpec(bench, config, "trrip") for bench in names])
    assert ({bench: result.cycles for bench, result in zip(names, inline)}
            == {bench: EVICTING_CYCLES[bench][column] for bench in names})
    pooled = ("m88ksim", "vortex")
    results = ExecutionService(scale=0.15, jobs=2).run_many(
        [JobSpec(bench, config, "trrip") for bench in pooled])
    assert ([result.cycles for result in results]
            == [EVICTING_CYCLES[bench][column] for bench in pooled])


@pytest.mark.parametrize("bench", ["compress", "li"])
def test_observed_run_matches_plain_run(bench):
    """Watching a run does not change it: with spans and events on,
    cycles, counters, the telemetry snapshot and the attribution equal
    an unobserved run's, and the attribution sums to the cycles."""
    trace = _trace(bench, 0.2)
    config = SimConfig.tiny(OptimizationConfig.all())
    plain = Engine(config).run(trace, benchmark=bench)
    telemetry = Telemetry(spans=True)
    telemetry.attach_memory()
    observed = Engine(config, telemetry=telemetry).run(trace,
                                                       benchmark=bench)
    assert sum(observed.attribution.values()) == observed.cycles
    assert dataclasses.asdict(observed) == dataclasses.asdict(plain)


#: cycle attribution, in ``CYCLE_CLASSES`` order, of three columns:
#: ``all`` and ``extended`` at scale 0.2 on ``SimConfig.tiny`` (the
#: extended passes' predicated segments issue phantom entries) and the
#: evicting machine under TRRIP at scale 0.15
ATTRIBUTION_COLUMNS = ("all", "extended", "evicting-trrip")
ATTRIBUTION = {
    "compress": (
        (4223, 0, 282, 1407, 1022, 120, 0),
        (3970, 0, 273, 995, 1151, 367, 0),
        (3172, 0, 273, 1426, 730, 120, 0),
    ),
    "gcc": (
        (2484, 0, 640, 943, 462, 84, 0),
        (2399, 0, 640, 907, 443, 84, 0),
        (1537, 0, 606, 849, 375, 52, 0),
    ),
    "go": (
        (3012, 0, 400, 635, 805, 606, 0),
        (3012, 0, 400, 635, 805, 606, 0),
        (1934, 0, 350, 343, 422, 606, 0),
    ),
    "ijpeg": (
        (4667, 0, 552, 552, 2090, 175, 0),
        (4667, 0, 552, 552, 2090, 175, 0),
        (3235, 0, 391, 260, 1464, 60, 0),
    ),
    "li": (
        (3494, 0, 415, 847, 901, 79, 0),
        (3494, 0, 415, 847, 901, 79, 0),
        (2297, 0, 391, 571, 946, 60, 0),
    ),
    "m88ksim": (
        (3306, 0, 775, 831, 737, 56, 0),
        (3306, 0, 775, 831, 737, 56, 0),
        (3304, 0, 786, 804, 624, 56, 0),
    ),
    "perl": (
        (3727, 0, 390, 1350, 1096, 111, 0),
        (3721, 0, 390, 1344, 1088, 111, 0),
        (2666, 0, 385, 997, 815, 111, 0),
    ),
    "vortex": (
        (1718, 0, 482, 327, 652, 60, 0),
        (1718, 0, 482, 327, 652, 60, 0),
        (1424, 0, 403, 160, 346, 60, 0),
    ),
    "gnuchess": (
        (2578, 0, 789, 828, 552, 408, 0),
        (2578, 0, 789, 828, 552, 408, 0),
        (2055, 0, 789, 912, 295, 408, 0),
    ),
    "ghostscript": (
        (1408, 0, 659, 753, 360, 55, 0),
        (1408, 0, 659, 753, 360, 55, 0),
        (1036, 0, 625, 448, 240, 55, 0),
    ),
    "pgp": (
        (2785, 0, 326, 178, 815, 3, 0),
        (2785, 0, 326, 178, 815, 3, 0),
        (1453, 0, 314, 40, 346, 3, 0),
    ),
    "gnuplot": (
        (2175, 0, 317, 805, 704, 99, 0),
        (2175, 0, 317, 805, 704, 99, 0),
        (1235, 0, 364, 462, 420, 85, 0),
    ),
    "python": (
        (2751, 0, 463, 1681, 776, 111, 0),
        (2755, 0, 463, 1667, 792, 111, 0),
        (2114, 0, 463, 1300, 658, 111, 0),
    ),
    "sim-outorder": (
        (2750, 0, 397, 890, 510, 54, 0),
        (2583, 0, 397, 714, 494, 136, 0),
        (1857, 0, 248, 703, 474, 54, 0),
    ),
    "tex": (
        (2960, 0, 351, 406, 829, 593, 0),
        (2986, 0, 351, 402, 863, 593, 0),
        (1712, 0, 351, 401, 429, 614, 0),
    ),
}


def _attribution_config(column: str) -> SimConfig:
    if column == "evicting-trrip":
        return evicting_config(OptimizationConfig.all(), "trrip")
    return SimConfig.tiny(PAPER_CONFIGS[column]())


@pytest.mark.parametrize("column", ATTRIBUTION_COLUMNS)
@pytest.mark.parametrize("bench", workloads.names())
def test_attribution_pinned(bench, column):
    """Every cycle class of a run, not just their sum."""
    scale = 0.15 if column == "evicting-trrip" else 0.2
    result = Engine(_attribution_config(column)).run(
        _trace(bench, scale), benchmark=bench)
    expected = ATTRIBUTION[bench][ATTRIBUTION_COLUMNS.index(column)]
    assert tuple(result.attribution[c] for c in CYCLE_CLASSES) == expected
    assert sum(expected) == result.cycles


def test_attribution_covers_every_workload():
    assert sorted(ATTRIBUTION) == sorted(workloads.names())


#: sha256 of ``json.dumps(dataclasses.asdict(result), sort_keys=True)``
#: for every workload at scale 0.1 on the paper machine with all four
#: optimizations — the ``repro run`` shape. It covers every count of
#: the result (each stored once, in its telemetry snapshot) and its
#: cycle attribution, not just the cycles. Re-pinning after a scope is
#: dropped is checked on the previous code: its results, with that
#: scope deleted from ``telemetry``, must hash to the new pins (here
#: and in ``EXTENDED_DIGESTS``).
SUITE_DIGESTS = {
    "compress": ("42edff0c47e8ae1af4f3697bae269565"
                 "fc1216463d6eb4f4a2c54aa5c3a8d0df"),
    "gcc": ("9066ad561ae5e054c9e6dba6840ef166"
            "8c1f2326a1865ae9cb976211665e1378"),
    "go": ("797b3849408cc31ff42db1917e1533d6"
           "9f104809dd074a0702d1a3697bdb7c95"),
    "ijpeg": ("6f605881a5ff32dcf3b0e0ad6dd3ff32"
              "12510b03aa2c2abec72b6a1d4af5b6a0"),
    "li": ("d7fc9d0d3ce22219279482b75af4078d"
           "24c0ba15f52d3f9c70829a6f48bc3d4d"),
    "m88ksim": ("b3d4f8fda698808afb90a6c842fee0e7"
                "9dde71742e6c253f1f6c220bbe0ce757"),
    "perl": ("80e377176953c93ec551e6bd1c7bef7b"
             "5476c3cba77b6d8f75dec8c86239f38e"),
    "vortex": ("843181924829fbb385aa24266a99129d"
               "a82406a6b114e9d65c125ebfcc55b314"),
    "gnuchess": ("3756d4a92a5da3d3ac26d473bb585f85"
                 "df93625edd550670354212c6ec680041"),
    "ghostscript": ("be81af7e6d5703fe7fb7108e834c7441"
                    "acdb017bdf657a548ee7a2a45354cc75"),
    "pgp": ("94187a34b15d0d8a6cf6cad5e2342068"
            "28c02c078081d857f0066d4ed5398fcd"),
    "gnuplot": ("2fee4e2a3c0b58698814f141b0949c45"
                "7e0a177c9dbbbe95de5d9832ea28afc7"),
    "python": ("20d5671b3bfe9db782f57ab3d2aad21c"
               "2441d4b9986bf81b6b74ed62a35c2bee"),
    "sim-outorder": ("fb43e5259d62e3d3a1a980d62cfe075e"
                     "23d6fff1ab721c5f3881a755cfd2d050"),
    "tex": ("585672a252168a210feadba1ec97c4a3"
            "dcfae142a4b15abbcffe48c12b31c20c"),
}


@pytest.mark.parametrize("bench", workloads.names())
def test_suite_result_digest(bench):
    config = SimConfig.paper(OptimizationConfig.all())
    result = Engine(config).run(_trace(bench, 0.1), benchmark=bench)
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() \
        == "".join(SUITE_DIGESTS[bench])


def test_suite_digests_cover_every_workload():
    assert sorted(SUITE_DIGESTS) == sorted(workloads.names())


#: sha256 of the same blob for every workload at scale 0.1 on the
#: paper machine with the extended pass set: the only digests whose
#: runs build predicated lines, so they pin the phantom entries and
#: the fetch coverage counters under predication.
EXTENDED_DIGESTS = {
    "compress": ("bcb3324b0d45869de7f32dfe35dff7b7"
                 "58972d80d280072a1bf9930c51dd854f"),
    "gcc": ("362ac90ffb831d90fe8344fb951e53ae"
            "785a4ad60b7bdca91ab689f4031ed48c"),
    "go": ("797b3849408cc31ff42db1917e1533d6"
           "9f104809dd074a0702d1a3697bdb7c95"),
    "ijpeg": ("6f605881a5ff32dcf3b0e0ad6dd3ff32"
              "12510b03aa2c2abec72b6a1d4af5b6a0"),
    "li": ("d7fc9d0d3ce22219279482b75af4078d"
           "24c0ba15f52d3f9c70829a6f48bc3d4d"),
    "m88ksim": ("b3d4f8fda698808afb90a6c842fee0e7"
                "9dde71742e6c253f1f6c220bbe0ce757"),
    "perl": ("e79cc16dde0a82dbb91a778adfd9673c"
             "ec7be39baed6d932b01e179feff264f7"),
    "vortex": ("843181924829fbb385aa24266a99129d"
               "a82406a6b114e9d65c125ebfcc55b314"),
    "gnuchess": ("3756d4a92a5da3d3ac26d473bb585f85"
                 "df93625edd550670354212c6ec680041"),
    "ghostscript": ("be81af7e6d5703fe7fb7108e834c7441"
                    "acdb017bdf657a548ee7a2a45354cc75"),
    "pgp": ("94187a34b15d0d8a6cf6cad5e2342068"
            "28c02c078081d857f0066d4ed5398fcd"),
    "gnuplot": ("2fee4e2a3c0b58698814f141b0949c45"
                "7e0a177c9dbbbe95de5d9832ea28afc7"),
    "python": ("04a238ca6327388d9337165d7f3b2614"
               "b6340a4c9cc9c434fb483a7bb5c5d781"),
    "sim-outorder": ("c62ced3dbe635233ffa46ed71435dc58"
                     "0867a6b5ccbf058c22c7370c42f211e5"),
    "tex": ("300f44d55f46c422ba8bc40117efa5a8"
            "4719eb27539d86b91d5bcd3d783cccbb"),
}


@pytest.mark.parametrize("bench", workloads.names())
def test_extended_result_digest(bench):
    config = SimConfig.paper(OptimizationConfig.extended())
    result = Engine(config).run(_trace(bench, 0.1), benchmark=bench)
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() \
        == "".join(EXTENDED_DIGESTS[bench])


def test_extended_digests_cover_every_workload():
    assert sorted(EXTENDED_DIGESTS) == sorted(workloads.names())
