"""The one-call analysis entry point and its result container.

:func:`analyze_program` runs CFG construction, loop detection, the
opportunity detectors, the placement profile and the lint pass over an
assembled :class:`~repro.program.image.Program`, and folds everything
into an :class:`AnalysisReport` — the object the CLI ``analyze`` verb
prints, ``core/export`` serialises, and the harness cross-checker
treats as the oracle. The machine parameters (the scaled-add shift
limit, the cluster geometry) come from the :class:`~repro.core.config.
SimConfig` the fill unit is built from, so the bound and the run it
bounds cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro.analysis.static.cfg import build_cfg
from repro.analysis.static.lint import (
    ERROR,
    WARNING,
    LintFinding,
    lint_program,
)
from repro.analysis.static.opportunities import (
    BlockPressure,
    find_opportunities,
    placement_pressure,
)
from repro.core.config import SimConfig
from repro.program.image import Program


@dataclass
class AnalysisReport:
    """Everything the static analyzer derived from one program."""

    benchmark: str
    instructions: int                # static text length
    blocks: int
    edges: int
    loops: int
    unreachable_blocks: int

    #: per-opt site PCs: a sound superset of what the fill unit's
    #: dynamic passes can ever transform (the opportunity oracle).
    move_sites: List[int] = field(default_factory=list)
    reassoc_sites: List[int] = field(default_factory=list)
    scaled_sites: List[int] = field(default_factory=list)

    #: placement pressure, summed over blocks.
    dep_edges: int = 0
    cross_cluster_edges: int = 0
    dep_height_max: int = 0

    lint: List[LintFinding] = field(default_factory=list)

    # ------------------------------------------------------------------

    def site_sets(self) -> Dict[str, FrozenSet[int]]:
        """Per-class static site sets, ``any_opt`` included."""
        moves = frozenset(self.move_sites)
        reassoc = frozenset(self.reassoc_sites)
        scaled = frozenset(self.scaled_sites)
        return {"moves": moves, "reassoc": reassoc, "scaled": scaled,
                "any_opt": moves | reassoc | scaled}

    def static_bounds(self) -> Dict[str, int]:
        """Distinct-PC upper bounds per opt class."""
        return {name: len(pcs) for name, pcs in self.site_sets().items()}

    def lint_errors(self) -> List[LintFinding]:
        return [f for f in self.lint if f.severity == ERROR]

    def lint_warnings(self) -> List[LintFinding]:
        return [f for f in self.lint if f.severity == WARNING]

    def summary(self) -> str:
        bounds = self.static_bounds()
        return (f"{self.benchmark:12s} instrs={self.instructions:5d} "
                f"blocks={self.blocks:4d} edges={self.edges:4d} "
                f"loops={self.loops:3d} | sites: "
                f"mv={bounds['moves']:4d} ra={bounds['reassoc']:4d} "
                f"sc={bounds['scaled']:4d} any={bounds['any_opt']:4d} | "
                f"lint: {len(self.lint_errors())} errors, "
                f"{len(self.lint_warnings())} warnings")


def analyze_program(program: Program, benchmark: str,
                    config: SimConfig) -> AnalysisReport:
    """Run the full static analysis over *program* for the machine
    *config*: its scaled-add shift limit and its cluster geometry."""
    cfg = build_cfg(program)
    sites = find_opportunities(
        cfg, config.optimizations.max_scale_shift)
    pressure: List[BlockPressure] = placement_pressure(
        cfg, config.num_clusters, config.cluster_size)
    reachable = cfg.reachable()
    return AnalysisReport(
        benchmark=benchmark,
        instructions=len(program.instructions),
        blocks=len(cfg.blocks),
        edges=len(cfg.edges()),
        loops=len(cfg.natural_loops()),
        unreachable_blocks=len(cfg.blocks) - len(reachable),
        move_sites=sorted(sites.moves),
        reassoc_sites=sorted(sites.reassoc),
        scaled_sites=sorted(sites.scaled),
        dep_edges=sum(p.dep_edges for p in pressure),
        cross_cluster_edges=sum(p.cross_cluster_edges for p in pressure),
        dep_height_max=max((p.dep_height for p in pressure), default=0),
        lint=lint_program(cfg),
    )


__all__ = ["AnalysisReport", "analyze_program"]
