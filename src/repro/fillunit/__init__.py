"""The fill unit: collects retired blocks into trace segments, performs
branch promotion, and runs the paper's four dynamic trace optimizations
off the critical path. Explicit dependency marking is computed by its
one reader, the placement pass."""

from repro.fillunit.collector import FillCollector, PendingSegment
from repro.fillunit.unit import FillUnit

__all__ = [
    "FillCollector",
    "PendingSegment",
    "FillUnit",
]
