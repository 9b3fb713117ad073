"""The opportunity oracle: dynamic transformations vs static bounds."""

from dataclasses import replace

import pytest

from repro import workloads
from repro.analysis.static import analyze_program
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.errors import ConfigError
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness.crosscheck import (
    OPT_CLASSES,
    OracleViolation,
    collect_dynamic_sites,
    cross_check,
)
from repro.machine.executor import Executor

SCALE = 0.3


def _trace_and_report(name, config):
    program = workloads.build(name, SCALE)
    report = analyze_program(program, name, config)
    trace = Executor(program).run()
    return report, trace


@pytest.mark.parametrize("name", ["compress", "li"])
def test_dynamic_sites_within_static_bounds(name):
    config = SimConfig.paper(OptimizationConfig.all())
    report, trace = _trace_and_report(name, config)
    check = cross_check(report, trace, config, name, "all")
    assert check.ok, check.render()
    for cls in OPT_CLASSES:
        assert check.dynamic_counts[cls] <= check.static_counts[cls]
    # The run genuinely transformed something — the bound is not
    # trivially satisfied by an idle fill unit.
    assert check.dynamic_counts["any_opt"] > 0
    assert "OK" in check.render()


@pytest.mark.parametrize("opts", ["moves", "reassoc", "scaled_adds"])
def test_each_paper_pass_individually(opts):
    config = SimConfig.paper(OptimizationConfig.only(opts))
    report, trace = _trace_and_report("compress", config)
    check = cross_check(report, trace, config, "compress", opts)
    assert check.ok, check.render()


@pytest.mark.parametrize("name", ["gnuchess", "go", "tex"])
def test_scaled_bound_follows_the_config_shift(name):
    """The static bound reads the shift limit from the machine the run
    uses: under one config per shift, the dynamic scaled sites lie in
    the static ones, and the static sets grow with the shift. A bound
    taken at shift 1 would not hold for the paper's shift-3 run."""
    program = workloads.build(name, 0.1)
    trace = Executor(program).run()
    static, dynamic = {}, {}
    for shift in (1, 2, 3):
        config = SimConfig.paper(
            replace(OptimizationConfig.all(), max_scale_shift=shift))
        report = analyze_program(program, name, config)
        static[shift] = frozenset(report.scaled_sites)
        _, sites = collect_dynamic_sites(trace, config, name)
        dynamic[shift] = sites["scaled"]
        assert dynamic[shift] <= static[shift], shift
    assert static[1] <= static[2] <= static[3]
    assert static[1] < static[3]
    assert not dynamic[3] <= static[1]


def test_violation_names_opt_and_pc():
    """An (artificially) empty static report turns every transformed
    PC into a violation naming the class and address."""
    config = SimConfig.paper(OptimizationConfig.all())
    report, trace = _trace_and_report("compress", config)
    report.move_sites = []
    report.reassoc_sites = []
    report.scaled_sites = []
    check = cross_check(report, trace, config, "compress", "all")
    assert not check.ok
    assert check.violations
    for violation in check.violations:
        assert violation.opt in OPT_CLASSES
        assert f"{violation.pc:#x}" in violation.render()
    assert "ORACLE VIOLATION" in check.render()


def test_extended_config_is_rejected():
    config = SimConfig.paper(OptimizationConfig.extended())
    report, trace = _trace_and_report("compress", config)
    with pytest.raises(ConfigError):
        cross_check(report, trace, config, "compress", "extended")


def test_no_trace_cache_is_rejected():
    config = replace(SimConfig.paper(OptimizationConfig.all()),
                     trace_cache_enabled=False)
    trace = Executor(workloads.build("compress", SCALE)).run()
    with pytest.raises(ConfigError):
        collect_dynamic_sites(trace, config, "compress", "all")


def test_site_log_does_not_change_timing():
    """The site-recording observer stage must leave cycle counts
    exactly as they were — it is bookkeeping, not modelling — and it
    sees built segments, so the site sets stay as pinned."""
    config = SimConfig.paper(OptimizationConfig.all())
    trace = Executor(workloads.build("compress", SCALE)).run()
    plain = Engine(config).run(trace, "compress", "all")
    logged, sites = collect_dynamic_sites(trace, config, "compress",
                                          "all")
    assert logged.cycles == plain.cycles
    assert logged.coverage == plain.coverage
    assert sites["any_opt"] == (sites["moves"] | sites["reassoc"]
                                | sites["scaled"])
    assert {name: len(pcs) for name, pcs in sites.items()} == {
        "moves": 18, "reassoc": 3, "scaled": 2, "any_opt": 23}


def test_violation_render():
    violation = OracleViolation(opt="moves", pc=0x1234)
    assert "moves" in violation.render()
    assert "0x1234" in violation.render()
