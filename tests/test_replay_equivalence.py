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
attribution) must also agree with an unobserved one on every counter,
and every cycle class of three observed columns is pinned too.

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
    result = Engine(config).run(_trace(bench, 0.2), benchmark=bench)
    assert result.cycles == GOLDEN_CYCLES[bench][2]


@pytest.mark.parametrize("policy", EVICTING_POLICIES)
@pytest.mark.parametrize("bench", workloads.names())
def test_evicting_column(bench, policy):
    """Every workload at scale 0.15 on the evicting machine."""
    config = evicting_config(OptimizationConfig.all(), policy)
    result = Engine(config).run(_trace(bench, 0.15), benchmark=bench)
    column = EVICTING_POLICIES.index(policy)
    assert result.cycles == EVICTING_CYCLES[bench][column]


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


#: cycle attribution, in ``CYCLE_CLASSES`` order, of three observed
#: columns: ``all`` and ``extended`` at scale 0.2 on ``SimConfig.tiny``
#: (the extended passes' predicated segments issue phantom entries)
#: and the evicting machine under TRRIP at scale 0.15
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
        (4667, 0, 552, 553, 2090, 175, 0),
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
    """Every cycle class of an observed run, not just their sum."""
    scale = 0.15 if column == "evicting-trrip" else 0.2
    result = Engine(_attribution_config(column), telemetry=Telemetry()).run(
        _trace(bench, scale), benchmark=bench)
    expected = ATTRIBUTION[bench][ATTRIBUTION_COLUMNS.index(column)]
    assert tuple(result.attribution[c] for c in CYCLE_CLASSES) == expected
    assert sum(expected) == result.cycles


def test_attribution_covers_every_workload():
    assert sorted(ATTRIBUTION) == sorted(workloads.names())


#: sha256 of ``json.dumps(dataclasses.asdict(result), sort_keys=True)``
#: for every workload at scale 0.1 on the paper machine with all four
#: optimizations — the ``repro run`` shape. It covers every counter of
#: the result and its telemetry snapshot, not just the cycles.
SUITE_DIGESTS = {
    "compress": ("109901fd8cf74b08345157baaadd5ea4"
                 "cb1783ecdfe3577c3e5a161862a5a943"),
    "gcc": ("0c995c473cf953f51a0e877bd1acffda"
            "799650bb5fd8dabe09f7909287559e4b"),
    "go": ("8c472dce6386a7cee735e13182fecae7"
           "2a193faa3b5b1d962b10102c75600534"),
    "ijpeg": ("2ad52d98ab147efc6c9e2c03adaac2c6"
              "ecdeb9e3c44fe13c99b5e8eab617323b"),
    "li": ("58a3d5926dda83650d67119b0384e5f5"
           "acf333432763daa858f4eca249191265"),
    "m88ksim": ("94a4004e215565265131340d9a32e176"
                "9ddabf576335c68a3fdd456a9f7b2bb2"),
    "perl": ("fefa7572a618bbce88c6a31461cb42c0"
             "82071223d4ea3e7d5e1b7c2aa0290f9f"),
    "vortex": ("27f4568e8e3a39a2b69c34ddd8cdef93"
               "0c716924138599e0f9744d075d288143"),
    "gnuchess": ("bc96a66482ec034086880bc850d6e38f"
                 "94f396038da873d2f836126ecd09ad95"),
    "ghostscript": ("82be125c62d5e7d294d51dc4fd8bf695"
                    "99b60d3cee290f072cc5a33e0932170c"),
    "pgp": ("16e8b9e5e66286424c268e4a8232218f"
            "63b6dc1128490324d5189a16502cab0a"),
    "gnuplot": ("a763fa148f5cd66e1f73447d2def574d"
                "1ea8cb7e13bc3ab1b6b431d28e8beded"),
    "python": ("06a41501343a464f23596e7d9b83bb9b"
               "e7120c5307831ec70bb7bcd3c3e88e0a"),
    "sim-outorder": ("05f1abc8e7424129555877ba69e78b00"
                     "77f7e10b3385c71725c165a008ca4b7c"),
    "tex": ("49ca71d4f9039edcc132ab642203ac16"
            "5bd4e7062fe44e490fb98f0bb05a614b"),
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
    "compress": ("be2058f0988ff8965ce1fbb34e41c135"
                 "eba407b1ee6d9156512296589b8239f7"),
    "gcc": ("b8d7b231ddad0f6b2f3e547163de2cc8"
            "fea3223b448bdc10b7a96fc5a9801455"),
    "go": ("c6df15bb47a0b90880e547a2b0cfea87"
           "5a99209617c617486e1c628b00c22a72"),
    "ijpeg": ("1c2fd575f4ea9a65d94e7a6b86faaae6"
              "1786e1148491ad4b39ec610d5cb012c9"),
    "li": ("8e0883aed82752f485a1d3035fcef884"
           "82ef8ea75b2444ebb5eb039889f565a2"),
    "m88ksim": ("f99f75a078519b6dc8feff2f105e548d"
                "468ac79ab3e8c8a6dae5ef165e0fa261"),
    "perl": ("ea03d112d253def239510d53cf0d6e63"
             "b28f245b99ac614dfa643d5d9054a340"),
    "vortex": ("e01b0879992d7764aad11ac70dd1cea0"
               "48003dcaf44e30c67c9024bbf6922611"),
    "gnuchess": ("f8e02a6fff06d1a8ae4f21af7d87a9b5"
                 "cfaf6ec26859295a4c6a8591716b2f4f"),
    "ghostscript": ("15231fd57e235fd57f457579ba5dbf67"
                    "4c948cd22418bc76346441f98b8f469f"),
    "pgp": ("c7ff76c9f5015274a6d4039c90b03462"
            "a2130e56767ca941df48452982b3f4b0"),
    "gnuplot": ("fafc0ce5f70ea483a964e7dddabece24"
                "72ffa778c23844e524d99ff9ef862ad9"),
    "python": ("4ef47b6227b183e0a99c9e3ebce397f9"
               "fe5fc864814e5423bc8728279ae900e0"),
    "sim-outorder": ("4fdb771d1466896cfcdfb13d611fc5b8"
                     "ec58babb4faaaf5afb6eb6cc95a0ff7a"),
    "tex": ("2ada1181ad56c6a95fe40ae77d38cebd"
            "ab8cdb5c924049d1692616b5c495ea93"),
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
