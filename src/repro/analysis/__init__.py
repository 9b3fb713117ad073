"""Result aggregation, summary statistics, and static analysis.

``repro.analysis.stats`` aggregates benchmark results;
``repro.analysis.static`` analyses program images before any
simulation (CFG, dataflow, fill-unit opportunity bounds, lint) — see
``docs/static-analysis.md``.
"""

from repro.analysis.static import AnalysisReport, analyze_program
from repro.analysis.stats import arithmetic_mean

__all__ = [
    "AnalysisReport",
    "analyze_program",
    "arithmetic_mean",
]
