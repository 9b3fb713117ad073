"""End-to-end integration tests: the paper's qualitative claims hold on
the real workload suite (reduced scale to keep the suite fast)."""

import pytest

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.exec.grid import opt_job
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness.figures import improvement
from repro import workloads


@pytest.fixture(scope="module")
def service():
    return ExecutionService(scale=0.25)


SUBSET = ["compress", "m88ksim", "go", "li", "ijpeg"]


def test_combined_optimizations_improve_every_benchmark(service):
    for bench in SUBSET:
        imp = improvement(service, bench, OptimizationConfig.all())
        assert imp > 0, bench


def test_each_optimization_alone_does_not_regress_mean(service):
    from repro.analysis.stats import arithmetic_mean
    for opt in ("moves", "reassoc", "scaled_adds", "placement"):
        imps = [improvement(service, b, OptimizationConfig.only(opt))
                for b in SUBSET]
        assert arithmetic_mean(imps) > -0.5, opt


def test_combined_beats_each_single_opt_on_average(service):
    from repro.analysis.stats import arithmetic_mean
    combined = arithmetic_mean(
        [improvement(service, b, OptimizationConfig.all())
         for b in SUBSET])
    for opt in ("moves", "reassoc", "scaled_adds", "placement"):
        single = arithmetic_mean(
            [improvement(service, b, OptimizationConfig.only(opt))
             for b in SUBSET])
        assert combined > single, opt


def test_m88ksim_leads_reassociation(service):
    """Figure 4's headline: m88ksim towers over the others."""
    imps = {b: improvement(service, b, OptimizationConfig.only("reassoc"))
            for b in SUBSET}
    assert imps["m88ksim"] == max(imps.values())
    assert imps["m88ksim"] > 3 * max(
        v for b, v in imps.items() if b != "m88ksim")


def test_fill_latency_negligible(service):
    """Figure 8's second claim: 1/5/10-cycle fill pipelines perform
    within a few percent of each other."""
    for bench in ("compress", "m88ksim"):
        ipcs = [service.run(opt_job(bench, OptimizationConfig.all(),
                                    fill_latency=lat)).ipc
                for lat in (1, 5, 10)]
        spread = (max(ipcs) - min(ipcs)) / min(ipcs)
        assert spread < 0.05, (bench, ipcs)


def test_placement_reduces_bypass_delay_fraction(service):
    """Figure 7's claim, on the placement-friendly benchmark."""
    base = service.run(opt_job("ijpeg", OptimizationConfig.none()))
    placed = service.run(
        opt_job("ijpeg", OptimizationConfig.only("placement")))
    assert placed.bypass_delayed_fraction < base.bypass_delayed_fraction


def test_optimizations_never_change_architectural_results():
    """The optimized machine replays the same committed trace — and the
    functional outputs (program checksums) are by construction identical.
    Verify the fill unit's transformed segments also re-execute to the
    same result on the real workloads, segment by segment."""
    from repro.branch.bias import BiasTable
    from repro.fillunit.collector import FillCollector
    from repro.machine.executor import Executor
    from repro.machine.memory import Memory
    from repro.machine.state import ArchState
    from repro.tracecache.cache import TraceCacheConfig
    from tests.helpers import execute_sequence, make_fill_unit

    program = workloads.build("m88ksim", scale=0.05)
    trace = Executor(program).run()
    bias = BiasTable(64, threshold=8)
    unit = make_fill_unit(bias, OptimizationConfig.all(),
                          TraceCacheConfig(num_sets=64, assoc=4))
    collector = FillCollector(bias)
    checked = 0
    for record in trace.records[:4000]:
        if record.instr.is_cond_branch():
            bias.record(record.pc, record.taken)
        for candidate in collector.add(record):
            segment = unit.build_segment(candidate)
            # Re-execute both sequences from identical synthetic state
            # (word-aligned register seeds keep memory ops legal).
            ref_state, opt_state = ArchState(), ArchState()
            for reg in range(1, 32):
                ref_state.write_reg(reg, 0x4000 + reg * 64)
                opt_state.write_reg(reg, 0x4000 + reg * 64)
            mem_a, mem_b = Memory(), Memory()
            execute_sequence([r.instr for r in candidate.records],
                             ref_state, mem_a)
            execute_sequence(segment.instrs, opt_state, mem_b)
            assert ref_state.regs == opt_state.regs
            assert mem_a.snapshot() == mem_b.snapshot()
            checked += 1
    assert checked > 50


def test_package_run_path_end_to_end():
    """The run path the package exports: execute, then replay."""
    from repro import Engine, Executor, SimConfig
    trace = Executor(workloads.build("compress", scale=0.1)).run()
    result = Engine(SimConfig.paper()).run(trace, "compress")
    assert result.benchmark == "compress"
    assert result.ipc > 0


def test_simulate_one_shot():
    """One run on the tiny machine, straight from a built workload."""
    from repro import Executor
    result = Engine(SimConfig.tiny()).run(
        Executor(workloads.build("tex", scale=0.05)).run(), "tex")
    assert result.instructions > 0


def test_table2_coverage_orders_like_paper(service):
    """The reproduction's optimization-coverage ranking mirrors the
    paper's: m88ksim has the most transformed instructions; go leads
    scaled adds; li leads moves within this subset."""
    covs = {}
    for bench in SUBSET:
        result = service.run(opt_job(bench, OptimizationConfig.all()))
        covs[bench] = result.coverage.as_percentages(result.instructions)
    assert covs["m88ksim"]["total"] == max(c["total"] for c in covs.values())
    assert covs["m88ksim"]["reassoc"] == max(c["reassoc"]
                                             for c in covs.values())
    assert covs["go"]["scaled"] == max(c["scaled"] for c in covs.values())
    # move-idiom density: the pointer-chasing interpreter (li) far
    # above the array codes (go/ijpeg), as in the paper's Table 2.
    assert covs["li"]["moves"] > 3 * covs["go"]["moves"]
    assert covs["li"]["moves"] > 3 * covs["ijpeg"]["moves"]
