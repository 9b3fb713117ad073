"""Composable pipeline stages (see ``docs/architecture.md``).

The engine's stage list, in order::

    FetchStage -> RenameStage -> IssueStage -> ExecuteStage
        -> RetireStage -> FillStage [-> observer stages]

Each stage implements the :class:`PipelineStage` contract and
communicates only through the :class:`MachineState` handoff object.
Observers are stages too: with a telemetry session the engine appends
:class:`EventStage` and, with span capture, :class:`SpanStage`.
"""

from repro.core.stages.base import (
    FetchEntry,
    FetchGroup,
    MachineState,
    PipelineStage,
)
from repro.core.stages.execute import ExecuteStage
from repro.core.stages.fetch import FetchStage
from repro.core.stages.fill import FillStage
from repro.core.stages.issue import IssueStage
from repro.core.stages.observers import EventStage, SpanStage
from repro.core.stages.rename import RenameStage
from repro.core.stages.retire import RetireStage

__all__ = [
    "FetchEntry",
    "FetchGroup",
    "MachineState",
    "PipelineStage",
    "FetchStage",
    "RenameStage",
    "IssueStage",
    "ExecuteStage",
    "RetireStage",
    "FillStage",
    "EventStage",
    "SpanStage",
]
