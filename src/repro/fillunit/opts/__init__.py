"""The paper's four dynamic trace optimizations, plus dynamic
predication, as fill-unit passes."""

from repro.fillunit.opts.base import (
    OptimizationConfig,
    OptimizationPass,
    PassManager,
    PassContext,
)
from repro.fillunit.opts.moves import RegisterMovePass
from repro.fillunit.opts.reassoc import ReassociationPass
from repro.fillunit.opts.scaledadd import ScaledAddPass
from repro.fillunit.opts.placement import PlacementPass
from repro.fillunit.opts.predication import PredicationPass

__all__ = [
    "OptimizationConfig",
    "OptimizationPass",
    "PassManager",
    "PassContext",
    "RegisterMovePass",
    "ReassociationPass",
    "ScaledAddPass",
    "PlacementPass",
    "PredicationPass",
]
