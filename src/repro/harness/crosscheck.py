"""The opportunity oracle cross-checker.

Closes the loop between the static analyzer and the dynamic fill unit:
the set of PCs a dynamic pass actually transformed during a run must
be a subset of the static site set
(:meth:`repro.analysis.static.AnalysisReport.site_sets`) for every opt
class — a violation means an optimizer's eligibility test accepted a
pattern the sound static over-approximation says cannot exist, i.e.
the eligibility test is unsound (or the analyzer's CFG missed an
edge). The checker names the opt class and the offending PC.

The oracle covers the paper's four passes only: the extension passes
(CSE, dead-code elimination, dynamic predication) synthesise new move
idioms and rewrite opcodes, so requesting a cross-check under an
extended configuration is an error, not a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.analysis.static.report import AnalysisReport
from repro.core.config import SimConfig
from repro.core.pipeline import PipelineModel
from repro.core.results import SimResult
from repro.core.stages.base import PipelineStage
from repro.errors import ConfigError
from repro.machine.tracing import CommittedTrace

#: the opt classes with a per-PC rewrite to bound.
OPT_CLASSES = ("moves", "reassoc", "scaled", "any_opt")


@dataclass(frozen=True)
class OracleViolation:
    """One dynamically transformed PC outside the static bound."""

    opt: str
    pc: int

    def render(self) -> str:
        return (f"{self.opt}: transformed pc {self.pc:#x} is outside "
                f"the static site set")


@dataclass
class OracleCheck:
    """Outcome of one benchmark's static-vs-dynamic cross-check."""

    benchmark: str
    config_label: str
    static_counts: Dict[str, int]
    dynamic_counts: Dict[str, int]       # distinct transformed PCs
    violations: List[OracleViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"{self.benchmark} [{self.config_label}]: "
                 f"{'OK' if self.ok else 'ORACLE VIOLATION'}"]
        for name in OPT_CLASSES:
            lines.append(
                f"  {name:8s} dynamic {self.dynamic_counts[name]:4d} "
                f"<= static {self.static_counts[name]:4d} sites")
        for violation in self.violations:
            lines.append("  " + violation.render())
        return "\n".join(lines)


def _require_paper_opts(config: SimConfig) -> None:
    opts = config.optimizations
    if opts.cse or opts.dead_code or opts.predication:
        raise ConfigError(
            "the opportunity oracle only covers the paper's four "
            "passes; disable cse/dead_code/predication to cross-check")


class SiteLog(PipelineStage):
    """Observer stage: every built segment's transformed PCs per opt
    class (bookkeeping only; modelled cycle counts are unaffected)."""

    name = "sites"

    def __init__(self) -> None:
        self.moves: Set[int] = set()
        self.reassoc: Set[int] = set()
        self.scaled: Set[int] = set()

    def segment_built(self, segment: Any, cycle: int) -> None:
        for instr in segment.instrs:
            if instr.move_flag:
                self.moves.add(instr.pc)
            if instr.reassociated:
                self.reassoc.add(instr.pc)
            if instr.scale is not None:
                self.scaled.add(instr.pc)


def collect_dynamic_sites(trace: CommittedTrace, config: SimConfig,
                          benchmark: str = "bench",
                          label: str = "crosscheck"
                          ) -> Tuple[SimResult, Dict[str, Set[int]]]:
    """Replay *trace* while recording per-class transformed PCs.

    Returns the run's :class:`SimResult` plus
    ``{opt class: set of PCs}`` (``any_opt`` is the union), recorded by
    a :class:`SiteLog` stage appended to the engine.

    Raises:
        ConfigError: without a trace cache (no fill unit to observe)
            or under an extended optimization configuration.
    """
    _require_paper_opts(config)
    model = PipelineModel(config)
    if model.fill_unit is None:
        raise ConfigError("cross-check requires the trace cache "
                          "(and with it the fill unit) enabled")
    log = SiteLog()
    model.stages.append(log)
    result = model.run(trace, benchmark=benchmark, label=label)
    return result, {"moves": log.moves, "reassoc": log.reassoc,
                    "scaled": log.scaled,
                    "any_opt": log.moves | log.reassoc | log.scaled}


def cross_check(report: AnalysisReport, trace: CommittedTrace,
                config: SimConfig, benchmark: str = "bench",
                label: str = "crosscheck") -> OracleCheck:
    """Check dynamic transformations against the static oracle.

    Raises:
        ConfigError: see :func:`collect_dynamic_sites`.
    """
    result, dynamic = collect_dynamic_sites(trace, config, benchmark,
                                            label)
    static = report.site_sets()
    violations = [OracleViolation(opt=name, pc=pc)
                  for name in OPT_CLASSES
                  for pc in sorted(dynamic[name] - static[name])]
    return OracleCheck(
        benchmark=benchmark,
        config_label=label,
        static_counts={name: len(static[name]) for name in OPT_CLASSES},
        dynamic_counts={name: len(dynamic[name])
                        for name in OPT_CLASSES},
        violations=violations)


__all__ = ["OPT_CLASSES", "OracleCheck", "OracleViolation", "SiteLog",
           "collect_dynamic_sites", "cross_check"]
