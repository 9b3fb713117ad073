"""Ablation studies beyond the paper's figures, for the design choices
DESIGN.md calls out:

* the trace cache substrate (measured with placement enabled: wide
  16-instruction fetch groups *without* placement scatter dependence
  chains across clusters, which can cancel the bandwidth win on
  latency-bound codes — the very pathology the placement pass exists
  to fix; see the emitted table);
* trace packing (paper baseline feature, from Patel et al.);
* the paper's inhibition of same-block reassociation (§4.3 reports that
  lifting it gains nothing because the compiler already did the work —
  our kernels emulate the compiled-code property, so lifting it should
  likewise gain little);
* cross-cluster bypass penalty sensitivity (the placement pass's reason
  to exist).
"""

from dataclasses import replace

import pytest

from repro.analysis.stats import arithmetic_mean
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.exec.grid import opt_job
from repro.fillunit.opts.base import OptimizationConfig

SUBSET = ["m88ksim", "go", "li", "ijpeg"]
BASE = OptimizationConfig.none()
PLACE = OptimizationConfig.only("placement")
ALL = OptimizationConfig.all()


def run_config(service, bench, config, label):
    model = Engine(config)
    return model.run(service.trace(bench), benchmark=bench, label=label)


@pytest.mark.figure
def test_ablation_trace_cache_value(benchmark, service, emit):
    """Value of the whole trace-cache substrate: the optimized TC
    machine versus instruction-cache-only fetch. Also reports the
    *unplaced* TC baseline, which can trail IC fetch on latency-bound
    codes because wide fetch groups scatter chains across clusters."""
    def study():
        rows = {}
        for bench in SUBSET:
            no_tc = run_config(
                service, bench,
                replace(SimConfig.paper(), trace_cache_enabled=False),
                "no-tc")
            tc_base = service.run(opt_job(bench, BASE))
            tc_placed = service.run(opt_job(bench, PLACE))
            tc_full = service.run(opt_job(bench, ALL))
            rows[bench] = (
                100.0 * (tc_base.ipc - no_tc.ipc) / no_tc.ipc,
                100.0 * (tc_placed.ipc - no_tc.ipc) / no_tc.ipc,
                100.0 * (tc_full.ipc - no_tc.ipc) / no_tc.ipc)
        return rows
    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    emit("Ablation: trace cache value over IC-only fetch\n"
         + "\n".join(f"  {name:10s} unplaced {a:+6.1f}%   "
                     f"placed {b:+6.1f}%   all opts {c:+6.1f}%"
                     for name, (a, b, c) in rows.items())
         + "\n(latency-bound pointer chasers like li can LOSE from the"
         "\n bare trace cache: 16-wide groups scatter their chains"
         "\n across clusters; the fill-unit optimizations win it back)")
    # The bare substrate wins on the fetch-bound majority (the
    # latency-bound pointer chaser may lose; see the emitted note) ...
    unplaced = [a for a, _, _ in rows.values()]
    assert sum(1 for a in unplaced if a > 0) >= len(unplaced) - 1
    # ... placement narrows any per-benchmark loss ...
    assert all(b >= a - 0.5 for a, b, _ in rows.values())
    # ... and the fully-optimizing fill unit wins everywhere.
    assert all(c > 0 for _, _, c in rows.values())
    assert arithmetic_mean(c for _, _, c in rows.values()) > 10.0


@pytest.mark.figure
def test_ablation_trace_packing(benchmark, service, emit):
    """Trace packing raises segment occupancy (more instructions per
    TC line). Compared under the combined optimizations, as the
    paper's baseline runs both packing and (in our case) placement,
    which compensates packing's wider slot spread."""
    def study():
        rows = {}
        for bench in SUBSET:
            packed = service.run(opt_job(bench, ALL))
            unpacked = run_config(
                service, bench,
                replace(SimConfig.paper(ALL), trace_packing=False),
                "no-packing")
            rows[bench] = (packed.ipc, unpacked.ipc,
                           packed.tc_instr_fraction,
                           unpacked.tc_instr_fraction)
        return rows
    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    emit("Ablation: trace packing vs block-granular fill "
         "(combined opts)\n"
         + "\n".join(f"  {name:10s} packed {p:5.2f} (tc {tp:.0%})  "
                     f"unpacked {u:5.2f} (tc {tu:.0%})"
                     for name, (p, u, tp, tu) in rows.items()))
    packed_mean = arithmetic_mean(p for p, _, _, _ in rows.values())
    unpacked_mean = arithmetic_mean(u for _, u, _, _ in rows.values())
    # Packing must not cost performance once placement handles the
    # slot spread; occupancy/coverage should not collapse either way.
    assert packed_mean >= 0.9 * unpacked_mean
    assert all(tp > 0.5 for _, _, tp, _ in rows.values())


@pytest.mark.figure
def test_ablation_same_block_reassociation(benchmark, service, emit):
    """Paper §4.3: lifting the cross-block-only restriction showed "no
    significant performance increase" because the compiler already
    reassociates within blocks. Our kernels are written pre-reassociated
    within blocks, so the same null result should hold."""
    restricted = OptimizationConfig.only("reassoc")
    unrestricted = OptimizationConfig(reassoc=True,
                                      reassoc_cross_flow_only=False)

    def study():
        rows = {}
        for bench in SUBSET:
            base = service.run(opt_job(bench, BASE))
            cross = service.run(opt_job(bench, restricted))
            full = run_config(
                service, bench, SimConfig.paper(unrestricted), "reassoc-all")
            rows[bench] = (cross.improvement_over(base),
                           full.improvement_over(base))
        return rows
    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    emit("Ablation: reassociation cross-block-only vs unrestricted\n"
         + "\n".join(f"  {name:10s} cross-only {c:+5.1f}%  "
                     f"unrestricted {f:+5.1f}%"
                     for name, (c, f) in rows.items()))
    deltas = [f - c for c, f in rows.values()]
    assert abs(arithmetic_mean(deltas)) < 3.0


@pytest.mark.figure
def test_ablation_bypass_penalty_sensitivity(benchmark, service, emit):
    """With a free bypass network (penalty 0) placement loses most of
    its reason to exist; with the paper's 1-cycle penalty it pays.
    (A small residue remains even at penalty 0 from functional-unit
    load balancing — placement also spreads slot pressure.)"""
    def study():
        rows = {}
        for bench in ("ijpeg", "gnuplot"):
            base1 = service.run(opt_job(bench, BASE))
            place1 = service.run(opt_job(bench, PLACE))
            gain_with_penalty = place1.improvement_over(base1)
            cfg0 = replace(SimConfig.paper(), cross_cluster_penalty=0)
            base0 = run_config(service, bench, cfg0, "free-bypass")
            place0 = run_config(
                service, bench, replace(cfg0, optimizations=PLACE),
                "free-bypass+placement")
            gain_free = place0.improvement_over(base0)
            rows[bench] = (gain_with_penalty, gain_free)
        return rows
    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    emit("Ablation: placement gain vs bypass penalty\n"
         + "\n".join(f"  {name:10s} penalty=1 {p1:+5.1f}%  "
                     f"penalty=0 {p0:+5.1f}%"
                     for name, (p1, p0) in rows.items()))
    for name, (with_penalty, free) in rows.items():
        assert with_penalty > free - 0.5, name
        assert abs(free) < 4.0, name
    # Aggregate: the penalty is what placement monetizes.
    assert (arithmetic_mean(p1 for p1, _ in rows.values())
            > arithmetic_mean(p0 for _, p0 in rows.values()) + 1.0)


@pytest.mark.figure
def test_ablation_wrong_path_pollution(benchmark, service, emit):
    """Opt-in wrong-path fetch pollution (repro.core.wrongpath): the
    replay methodology's documented gap, measured. On this machine the
    trace cache covers ~99% of fetch, so I-side pollution is a
    second-order effect — quantifying that is the point."""
    def study():
        rows = {}
        for bench in ("compress", "perl"):      # the mispredict-heavy pair
            plain = service.run(opt_job(bench, BASE))
            cfg = replace(SimConfig.paper(), model_wrong_path=True)
            polluted = Engine(cfg).run(service.trace(bench), bench,
                                       "wrong-path")
            rows[bench] = (plain.ipc, polluted.ipc,
                           polluted.wrong_path_fetches)
        return rows
    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    emit("Ablation: wrong-path fetch pollution (opt-in)\n"
         + "\n".join(f"  {name:10s} plain {p:5.2f}  polluted {q:5.2f}  "
                     f"({n} wrong-path instrs fetched)"
                     for name, (p, q, n) in rows.items()))
    for name, (plain, polluted, fetched) in rows.items():
        assert fetched > 0, name
        # second-order: within a few percent either way
        assert abs(polluted - plain) / plain < 0.08, name
