"""Static program analysis over assembled images.

CFG + dominators + natural loops (:mod:`~repro.analysis.static.cfg`),
a generic iterative dataflow framework
(:mod:`~repro.analysis.static.dataflow`), the fill-unit opportunity
detectors (:mod:`~repro.analysis.static.opportunities`), the workload
lint pass (:mod:`~repro.analysis.static.lint`) with the call graph its
function-level rules read (:mod:`~repro.analysis.static.callgraph`),
and the :class:`AnalysisReport` facade
(:mod:`~repro.analysis.static.report`).
See ``docs/static-analysis.md``.
"""

from repro.analysis.static.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.static.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Loop,
    build_cfg,
)
from repro.analysis.static.dataflow import (
    ENTRY_DEF,
    ENTRY_REGS,
    DataflowAnalysis,
    DataflowResult,
    Liveness,
    ReachingDefinitions,
    def_use_chains,
    solve,
)
from repro.analysis.static.lint import LintFinding, lint_program
from repro.analysis.static.opportunities import (
    BlockPressure,
    OpportunitySites,
    block_pressure,
    find_opportunities,
    placement_pressure,
    possible_move_sources,
)
from repro.analysis.static.report import (
    AnalysisReport,
    analyze_program,
)

__all__ = [
    "AnalysisReport",
    "BasicBlock",
    "BlockPressure",
    "CallGraph",
    "CallSite",
    "ControlFlowGraph",
    "DataflowAnalysis",
    "DataflowResult",
    "ENTRY_DEF",
    "ENTRY_REGS",
    "FunctionInfo",
    "LintFinding",
    "Liveness",
    "Loop",
    "OpportunitySites",
    "ReachingDefinitions",
    "analyze_program",
    "block_pressure",
    "build_call_graph",
    "build_cfg",
    "def_use_chains",
    "find_opportunities",
    "lint_program",
    "placement_pressure",
    "possible_move_sources",
    "solve",
]
