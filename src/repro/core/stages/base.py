"""Stage-architecture primitives: the contract every pipeline stage
implements and the state object handed between them.

The replay engine (:class:`repro.core.engine.Engine`) owns an ordered
list of :class:`PipelineStage` objects — fetch, rename, issue,
execute, retire, fill — and drives them through one fetch group at a
time. All shared, mutable replay state lives in one explicit
:class:`MachineState` handoff object; a stage communicates with its
neighbours only through that state (plus the :class:`FetchEntry`
it is currently advancing, which carries the instruction's timeline),
never by reaching into another stage.

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
    """One instruction's trip through the pipeline: what fetch found,
    then the timeline the per-instruction stages fill in.

    Fetch sets ``record``, ``instr``, ``decoded``, ``slot``,
    ``from_tc`` and ``phantom``, plus ``mispredicted`` and
    ``promoted`` (False unless a branch sets them). ``executed`` and
    ``retire_cycle`` start at False and 0, since a stage may read
    them before any stage writes them. Every other field is written
    before it is read, first by:

    - rename: ``seq`` (committed-stream sequence number, the retired
      count) and ``renamed`` (rename cycle); for a marked move also
      ``complete``, ``penalized`` and ``executed``;
    - issue: ``penalized`` (the last-arriving source paid the
      cross-cluster penalty); for a dispatched instruction
      ``cluster``, ``exec_start`` (FU issue cycle) and ``data_ready``
      (store-data readiness); for a NOP ``complete`` and ``executed``;
    - execute: ``complete`` and ``executed``;
    - retire: ``retire_cycle``, of committed entries only.
    """

    __slots__ = ("record", "instr", "decoded", "slot", "from_tc",
                 "mispredicted", "promoted", "phantom", "seq",
                 "renamed", "executed", "complete", "penalized",
                 "cluster", "exec_start", "data_ready", "retire_cycle")

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
        #: a predicated instruction whose guard failed on the actual
        #: path: it issues and executes (writing back its old value)
        #: but matches no committed record.
        self.phantom = phantom
        self.mispredicted = False
        self.promoted = False
        self.executed = False
        self.retire_cycle = 0


class FetchGroup:
    """One assembled fetch group plus its group-scoped delay ledger.

    ``recovery``/``serialize``/``fetch_extra`` are the front-end delay
    decomposition the cycle-accounting stage debits once, on the
    group's first committed instruction; fetch sets them and nothing
    writes them afterwards.
    ``next_fetch`` is the running earliest fetch cycle for the *next*
    group; mispredict redirects and serialization drains push it back.
    """

    __slots__ = ("entries", "fetch_cycle", "fetch_extra", "recovery",
                 "serialize", "next_fetch", "recovery_bump",
                 "serialize_after", "consumed", "segment")

    def __init__(self, entries: List[FetchEntry], fetch_cycle: int,
                 segment: Optional[Any] = None) -> None:
        self.entries = entries
        self.fetch_cycle = fetch_cycle
        #: the trace-cache segment the group came from, if any
        self.segment = segment
        #: fetch delay beyond the requested cycle (I-cache miss path)
        self.fetch_extra = 0
        #: mispredict-recovery share of this group's fetch delay
        self.recovery = 0
        #: serialization-drain share of this group's fetch delay
        self.serialize = 0
        #: earliest fetch cycle of the group that follows
        self.next_fetch = 0
        #: redirect pushback accumulated by this group's mispredicts
        self.recovery_bump = 0
        #: retire cycle of the group's last serializing instruction
        self.serialize_after: Optional[int] = None
        #: committed-stream records this group consumed (phantoms
        #: excluded)
        self.consumed = 0


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
        process(state, entry)             once per instruction
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
    Observer stages read the finished group in ``end_group`` instead:
    only the five pipeline stages override ``process``, and the engine
    calls those five links by name. A stage list with any other
    ``process`` chain is a :class:`~repro.errors.ConfigError` when the
    run starts.
    """

    name = "stage"

    def overrides(self, hook: str) -> bool:
        """Whether this stage's class overrides the *hook* method."""
        return getattr(type(self), hook) is not getattr(PipelineStage, hook)

    def begin_run(self, state: MachineState) -> None:
        """Capture run-scoped configuration before the first group."""

    def begin_group(self, state: MachineState) -> None:
        """Group-granular work (the fetch stage assembles the group)."""

    def process(self, state: MachineState, entry: FetchEntry) -> None:
        """Advance one instruction through this stage: read and set
        its timeline fields on *entry*."""

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


__all__ = ["FetchEntry", "FetchGroup", "MachineState",
           "PipelineStage", "MetricBlock"]
