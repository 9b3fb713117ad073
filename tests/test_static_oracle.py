"""The opportunity oracle: dynamic transformations vs static bounds."""

import pytest

from repro import workloads
from repro.analysis.static import analyze_program
from repro.core.config import SimConfig
from repro.core.simulator import Simulator
from repro.errors import ConfigError
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness.crosscheck import (
    OPT_CLASSES,
    OracleViolation,
    collect_dynamic_sites,
    cross_check,
)

SCALE = 0.3


def _trace_and_report(name, config):
    program = workloads.build(name, SCALE)
    report = analyze_program(program, name)
    trace = Simulator(config).trace_program(program)
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
    from dataclasses import replace
    config = replace(SimConfig.paper(OptimizationConfig.all()),
                     trace_cache_enabled=False)
    program = workloads.build("compress", SCALE)
    trace = Simulator(config).trace_program(program)
    with pytest.raises(ConfigError):
        collect_dynamic_sites(trace, config, "compress", "all")


def test_site_log_does_not_change_timing():
    """The site-recording observer stage must leave cycle counts
    exactly as they were — it is bookkeeping, not modelling — and it
    sees built segments, so the site sets stay as pinned."""
    config = SimConfig.paper(OptimizationConfig.all())
    program = workloads.build("compress", SCALE)
    trace = Simulator(config).trace_program(program)
    plain = Simulator(config).run(trace, "compress", "all")
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
