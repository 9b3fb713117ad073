"""Stage-architecture primitives: the contract every pipeline stage
implements and the state object handed between them.

The replay engine (:class:`repro.core.engine.Engine`) owns an ordered
list of :class:`PipelineStage` objects — fetch, rename, issue,
execute, retire, fill — and drives them through one fetch group at a
time. All shared, mutable replay state lives in one explicit
:class:`MachineState` handoff object; a stage communicates with its
neighbours only through that state (plus the per-instruction
:class:`InstrSlot` it is currently advancing), never by reaching into
another stage.

Granularity contract: rename, issue, execute, retire and fill are
*per-instruction* stages — the engine runs the full stage chain over
one instruction before starting the next, which is what makes the
decomposition bit-for-bit equivalent to the original monolithic loop
(checkpoint release, rename bandwidth and retire bandwidth are
sequential resources whose interleaving is program-order-per-
instruction, not stage-major). Fetch participates at *group*
granularity through :meth:`PipelineStage.begin_group` /
:meth:`PipelineStage.end_group`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.results import SimResult
from repro.telemetry.registry import TelemetryRegistry


class FetchEntry:
    """One instruction of a fetch group, ready for rename."""

    __slots__ = ("record", "instr", "decoded", "slot", "from_tc",
                 "mispredicted", "promoted", "phantom")

    def __init__(self, record: Any, instr: Any, slot: int, from_tc: bool,
                 phantom: bool = False) -> None:
        #: CommittedInstr (None for phantoms)
        self.record = record
        #: possibly the TC's transformed copy
        self.instr = instr
        #: *instr*'s decoded record (see :mod:`repro.isa.decoded`)
        self.decoded = instr.decoded
        #: issue slot -> functional unit
        self.slot = slot
        self.from_tc = from_tc
        self.mispredicted = False
        self.promoted = False
        #: a predicated instruction whose guard failed on the actual
        #: path: it issues and executes (writing back its old value)
        #: but matches no committed record.
        self.phantom = phantom


@dataclass
class FetchGroup:
    """One assembled fetch group plus its group-scoped delay ledger.

    ``recovery``/``serialize``/``fetch_extra`` are the front-end delay
    decomposition the cycle-accounting stage debits once, on the
    group's first retiring instruction (and zeroes after use).
    ``next_fetch`` is the running earliest fetch cycle for the *next*
    group; mispredict redirects and serialization drains push it back.
    """

    entries: List[FetchEntry] = field(default_factory=list)
    fetch_cycle: int = 0
    #: fetch delay beyond the requested cycle (I-cache miss path)
    fetch_extra: int = 0
    #: mispredict-recovery share of this group's fetch delay
    recovery: int = 0
    #: serialization-drain share of this group's fetch delay
    serialize: int = 0
    #: earliest fetch cycle of the group that follows
    next_fetch: int = 0
    #: redirect pushback accumulated by this group's mispredicts
    recovery_bump: int = 0
    #: retire cycle of the group's last serializing instruction
    serialize_after: Optional[int] = None
    #: committed-stream records this group consumed (phantoms excluded)
    consumed: int = 0
    #: the trace-cache segment the group came from, if any
    segment: Optional[Any] = None


class InstrSlot:
    """One instruction's trip through the per-instruction stages."""

    __slots__ = ("entry", "seq", "is_branch", "renamed", "executed",
                 "complete", "penalized", "cluster", "exec_start",
                 "data_ready", "retire_cycle")

    def __init__(self, entry: FetchEntry, seq: int) -> None:
        self.entry = entry
        #: committed-stream sequence number at entry (== retired count)
        self.seq = seq
        self.is_branch = False
        self.renamed = 0
        #: set once a stage has produced the completion cycle (rename
        #: for marked moves, issue for NOPs, execute for everything
        #: else)
        self.executed = False
        self.complete = 0
        #: last-arriving source paid the cross-cluster bypass penalty
        self.penalized = False
        #: executing cluster (issue stage; slot-wired)
        self.cluster = 0
        #: FU issue cycle (issue stage)
        self.exec_start = 0
        #: store-data readiness, joins in the store queue (issue stage)
        self.data_ready = 0
        self.retire_cycle = 0


@dataclass
class MachineState:
    """The explicit per-cycle handoff between stages.

    Everything the monolithic loop kept in local variables lives here:
    the committed stream and the fetch cursor, the architectural
    dataflow scoreboard, retirement history (bounding the in-flight
    window), the front-end delay carried into the next group, and the
    wrong-path model. Observers are not state: they are stages (see
    :class:`PipelineStage`).
    """

    records: List[Any]
    n: int
    result: SimResult
    #: register -> (ready cycle, producing cluster or None)
    reg_ready: List[Tuple[int, Optional[int]]]
    retire_cycles: List[int] = field(default_factory=list)
    index: int = 0
    fetch_ready: int = 0
    #: redirect delay debited to the *next* group's fetch cycle
    pending_recovery: int = 0
    #: serialization delay debited to the *next* group's fetch cycle
    pending_serialize: int = 0
    group: Optional[FetchGroup] = None
    wrong_path: Optional[Any] = None


class PipelineStage:
    """One composable stage of the replay engine.

    Subclasses override the hooks they need; every hook is a no-op by
    default so simple observer stages stay small. The engine calls,
    in stage-list order::

        begin_run(state)                  once per run
        begin_group(state)                once per fetch group
        process(state, slot)              once per instruction
        end_group(state)                  once per fetch group
        finish_run(state, result)         once per run

    ``finish_run`` receives ``state=None`` for an empty trace (no
    group was ever formed); stages must derive their result-counter
    contributions from their own components, not from the state.

    The segment hooks below report the fill unit's and trace cache's
    work as it happens, from inside the fill stage's ``process``. The
    engine builds its hook chains once per run and drives only the
    stages whose class overrides a hook (see :meth:`overrides`), so a
    stage without a ``process`` drops out of the per-instruction chain.
    """

    name = "stage"

    def overrides(self, hook: str) -> bool:
        """Whether this stage's class overrides the *hook* method."""
        return getattr(type(self), hook) is not getattr(PipelineStage, hook)

    def begin_run(self, state: MachineState) -> None:
        """Capture run-scoped configuration before the first group."""

    def begin_group(self, state: MachineState) -> None:
        """Group-granular work (the fetch stage assembles the group)."""

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        """Advance one instruction through this stage."""

    def end_group(self, state: MachineState) -> None:
        """Group-granular cleanup (the fetch stage sequences the next
        group's fetch cycle)."""

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        """Fold this stage's statistics into *result* (and mirror any
        per-component stats into the registry)."""

    def segment_collected(self, candidate: Any, cycle: int,
                          deduped: bool) -> None:
        """A candidate was finalized: resident already, or to build."""

    def pass_applied(self, segment: Any, index: int, name: str,
                     stats: Dict[str, int],
                     rejections: Dict[Tuple[str, str], int],
                     cycle: int) -> None:
        """Pass *index* ran; the last one brings the rejections.

        *segment* is the sealed result after the last pass, not the
        segment between passes: the fill unit reports a build's passes
        once it is sealed, and a rebuild of an identical input reuses
        that sealed segment and reports the same passes again."""

    def segment_verified(self, segment: Any, violations: List[Any],
                         cycle: int) -> None:
        """The verifier checked the optimized segment."""

    def line_displaced(self, key: Tuple[int, tuple], cycle: int,
                       incoming: Any, evicted: bool) -> None:
        """Inserting *incoming* dropped line *key* (evicted or refilled)."""

    def segment_built(self, segment: Any, cycle: int) -> None:
        """A built segment was installed in the trace cache."""


class MetricBlock:
    """Cached registry handles for a stage's hot-path counters.

    A telemetry session may span several runs; start values are
    captured at construction so one engine's run reports per-run
    deltas even against a shared, accumulating registry.
    """

    def __init__(self, registry: TelemetryRegistry,
                 scopes: Dict[str, str]) -> None:
        for attr, scope in scopes.items():
            setattr(self, attr, registry.counter(scope))
        self._starts = {attr: getattr(self, attr).value
                        for attr in scopes}

    def __getattr__(self, attr: str) -> Any:
        # Only reached for attrs not set in __init__; keeps mypy happy
        # about dynamic counter handles.
        raise AttributeError(attr)

    def delta(self, attr: str) -> int:
        """This run's contribution to one counter."""
        value: int = getattr(self, attr).value
        return value - self._starts[attr]


__all__ = ["FetchEntry", "FetchGroup", "InstrSlot", "MachineState",
           "PipelineStage", "MetricBlock"]
