"""Pipeline debugging aids: per-instruction timing capture.

Append a :class:`TimingTrace` to an engine's stage list to record when
every committed instruction was fetched, renamed, completed and
retired — the raw material for understanding *why* a configuration is
faster (which chain shrank, where the bypass penalty went)::

    engine = Engine(config)
    capture = TimingTrace(limit=200)
    engine.stages.append(capture)
    engine.run(trace)
    print(capture.render())

Records past ``limit`` are not silently discarded: the ``dropped``
counter says how many were seen but not kept, and ``render()`` reports
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.stages.base import MachineState, PipelineStage


@dataclass(frozen=True)
class TimingRecord:
    """One instruction's trip through the pipeline."""

    seq: int
    pc: int
    op: str
    fetch: int
    rename: int
    complete: int
    retire: int
    slot: int
    from_tc: bool
    mispredicted: bool

    @property
    def latency(self) -> int:
        """Fetch-to-retire cycles."""
        return self.retire - self.fetch


class TimingTrace(PipelineStage):
    """Bounded per-instruction timing capture, as an observer stage.

    Reads each finished fetch group: every committed instruction's
    record comes off its fetch entry and the group. Records accumulate
    across runs of the engine it is attached to.
    """

    name = "timing_trace"

    def __init__(self, limit: int = 1000, start_seq: int = 0) -> None:
        self.limit = limit
        self.start_seq = start_seq
        self.records: List[TimingRecord] = []
        #: records seen after the limit was reached (not retained)
        self.dropped = 0

    def end_group(self, state: MachineState) -> None:
        group = state.group
        assert group is not None
        for entry in group.entries:
            if entry.phantom or entry.seq < self.start_seq:
                continue
            if len(self.records) >= self.limit:
                self.dropped += 1
                continue
            self.records.append(TimingRecord(
                seq=entry.seq, pc=entry.record.pc, op=entry.instr.op.value,
                fetch=group.fetch_cycle, rename=entry.renamed,
                complete=entry.complete, retire=entry.retire_cycle,
                slot=entry.slot, from_tc=entry.from_tc,
                mispredicted=entry.mispredicted))

    def __len__(self) -> int:
        return len(self.records)

    def find(self, pc: int) -> List[TimingRecord]:
        """All captured records for the static instruction at *pc*."""
        return [r for r in self.records if r.pc == pc]

    def render(self, count: Optional[int] = None) -> str:
        """A readable pipeline diagram-esque table."""
        rows = self.records if count is None else self.records[:count]
        lines = [f"{'seq':>7} {'pc':>8} {'op':6} {'F':>7} {'R':>7} "
                 f"{'C':>7} {'ret':>7} {'lat':>4} slot src"]
        for r in rows:
            lines.append(
                f"{r.seq:7d} {r.pc:8x} {r.op:6s} {r.fetch:7d} "
                f"{r.rename:7d} {r.complete:7d} {r.retire:7d} "
                f"{r.latency:4d} {r.slot:4d} "
                f"{'TC' if r.from_tc else 'IC'}"
                f"{' MISP' if r.mispredicted else ''}")
        if self.dropped:
            lines.append(f"({self.dropped} records past the "
                         f"{self.limit}-record limit were dropped)")
        return "\n".join(lines)


__all__ = ["TimingTrace", "TimingRecord"]
