"""The fill unit: collects retired blocks into trace segments, performs
branch promotion, and runs the paper's four dynamic trace optimizations
off the critical path. Explicit dependency marking
(:func:`mark_dependencies`) is computed by its readers, placement and
the pre-decode encoder."""

from repro.fillunit.collector import FillCollector, PendingSegment
from repro.fillunit.dependency import DependencyInfo, mark_dependencies
from repro.fillunit.unit import FillUnit

__all__ = [
    "FillCollector",
    "PendingSegment",
    "DependencyInfo",
    "mark_dependencies",
    "FillUnit",
]
