"""Simulation results and statistics containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict


@dataclass
class OptCoverage:
    """Dynamic optimized-instruction coverage (the paper's Table 2):
    how many *committed* instructions were consumed from the trace
    cache in transformed form, per transformation."""

    moves: int = 0
    reassoc: int = 0
    scaled: int = 0
    any_opt: int = 0

    def as_percentages(self, total: int) -> dict:
        """Per-field percentages of *total* committed instructions.

        The key set is identical in every case: one key per counter
        field (``any_opt`` included) plus the legacy ``total`` alias
        for ``any_opt``.
        """
        if total == 0:
            return {"moves": 0.0, "reassoc": 0.0, "scaled": 0.0,
                    "any_opt": 0.0, "total": 0.0}
        return {
            "moves": 100.0 * self.moves / total,
            "reassoc": 100.0 * self.reassoc / total,
            "scaled": 100.0 * self.scaled / total,
            "any_opt": 100.0 * self.any_opt / total,
            "total": 100.0 * self.any_opt / total,
        }


@dataclass
class SimResult:
    """Everything a run produced.

    Each count is stored once, in :attr:`telemetry`. The typed counters
    (``tc_hits``, ``mispredicts``, ...) are read-only properties over
    it, one per :data:`COUNTER_SCOPES` entry, and :attr:`coverage`
    gathers the four ``fetch.tc.opt.*`` scopes; a scope the run did
    not write (the trace cache's, on a machine without one) reads 0.
    ``ic_fetched_instrs`` is the rest of :attr:`instructions`.
    """

    benchmark: str
    config_label: str
    instructions: int
    cycles: int

    # Telemetry (see repro.telemetry): this run's counts, one
    # {scope: value} dict in sorted scope order that the stages write
    # once the run finishes, and the top-down cycle attribution, which
    # every run of a non-empty trace has (classes sum exactly to
    # `cycles`; an empty trace has none).
    telemetry: dict = field(default_factory=dict)
    attribution: dict = field(default_factory=dict)

    if TYPE_CHECKING:
        # the typed counters, which are set on the class below
        def __getattr__(self, name: str) -> int: ...

    @property
    def coverage(self) -> OptCoverage:
        """The optimized-instruction coverage (Table 2) of the run."""
        telemetry = self.telemetry
        return OptCoverage(**{name: telemetry.get(scope, 0)
                              for name, scope in _COVERAGE_SCOPES})

    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def tc_hit_rate(self) -> float:
        return self.tc_hits / self.tc_lookups if self.tc_lookups else 0.0

    @property
    def ic_fetched_instrs(self) -> int:
        """Committed instructions fetched from the I-cache: every one
        the trace cache did not supply."""
        return self.instructions - self.tc_fetched_instrs

    @property
    def tc_instr_fraction(self) -> float:
        """Fraction of committed instructions supplied by the TC."""
        return (self.tc_fetched_instrs / self.instructions
                if self.instructions else 0.0)

    @property
    def bypass_delayed_fraction(self) -> float:
        """Figure 7's metric: fraction of on-path instructions whose
        last-arriving source value was delayed by the bypass network."""
        return (self.bypass_delayed / self.instructions
                if self.instructions else 0.0)

    @property
    def mispredict_rate(self) -> float:
        return (self.mispredicts / self.cond_branches
                if self.cond_branches else 0.0)

    def improvement_over(self, baseline: "SimResult") -> float:
        """Percent IPC improvement relative to *baseline*."""
        if baseline.ipc == 0:
            return 0.0
        return 100.0 * (self.ipc - baseline.ipc) / baseline.ipc

    def summary(self) -> str:
        return (f"{self.benchmark:12s} [{self.config_label:14s}] "
                f"IPC={self.ipc:5.2f}  cycles={self.cycles:8d}  "
                f"instrs={self.instructions:8d}  "
                f"tc={100 * self.tc_instr_fraction:5.1f}%  "
                f"bypass={100 * self.bypass_delayed_fraction:5.1f}%")


#: typed counter -> the telemetry scope it reads
#: (``coverage.<name>`` is an :class:`OptCoverage` field). The stages
#: write only scopes; this table is the one place that knows both
#: names. A fact has one scope, so several counters may read it: a
#: built segment is a trace-cache fill, a deduped one a refresh, and
#: an eliminated move a consumed ``moves`` entry.
COUNTER_SCOPES: Dict[str, str] = {
    "tc_fetched_instrs": "fetch.tc.instrs",
    "tc_lookups": "fetch.tc.lookups",
    "tc_hits": "fetch.tc.hits",
    "cond_branches": "branch.cond.seen",
    "mispredicts": "branch.cond.mispredicts",
    "promoted_fetches": "branch.promoted.fetches",
    "promoted_mispredicts": "branch.promoted.mispredicts",
    "indirect_mispredicts": "branch.indirect.mispredicts",
    "wrong_path_fetches": "branch.wrong_path.fetches",
    "bypass_delayed": "backend.bypass.cross_cluster",
    "executed_with_sources": "backend.exec.with_sources",
    "moves_eliminated": "fetch.tc.opt.moves",
    "predicated_branches": "predication.branches",
    "predication_phantoms": "predication.phantoms",
    "dcache_hits": "mem.l1d.hits",
    "dcache_misses": "mem.l1d.misses",
    "icache_misses": "mem.l1i.misses",
    "forwarded_loads": "mem.forwarded_loads",
    "segments_built": "fetch.tc.fills",
    "segments_deduped": "fetch.tc.refreshes",
    "coverage.moves": "fetch.tc.opt.moves",
    "coverage.reassoc": "fetch.tc.opt.reassoc",
    "coverage.scaled": "fetch.tc.opt.scaled",
    "coverage.any_opt": "fetch.tc.opt.any",
}


_COVERAGE_SCOPES = tuple((name[len("coverage."):], scope)
                         for name, scope in COUNTER_SCOPES.items()
                         if name.startswith("coverage."))


def _counter(scope: str) -> property:
    """The read-only typed counter of telemetry scope *scope*."""
    def read(result: SimResult) -> int:
        count: int = result.telemetry.get(scope, 0)
        return count
    return property(read, doc=f"The ``{scope}`` count (0 if unwritten).")


for _name, _scope in COUNTER_SCOPES.items():
    if not _name.startswith("coverage."):
        setattr(SimResult, _name, _counter(_scope))
del _name, _scope


def histogram(counts: Dict[int, int]) -> Dict[str, Any]:
    """The telemetry summary of a ``{value: times seen}`` distribution
    of non-negative ints: count, total, min, max, mean and power-of-two
    buckets (bucket ``k`` counts the values whose ``bit_length()`` is
    ``k``, so zero lands in bucket 0)."""
    buckets: Dict[int, int] = {}
    for value, seen in counts.items():
        bucket = value.bit_length()
        buckets[bucket] = buckets.get(bucket, 0) + seen
    count = sum(counts.values())
    total = sum(value * seen for value, seen in counts.items())
    return {
        "count": count,
        "total": total,
        "min": min(counts) if counts else None,
        "max": max(counts) if counts else None,
        "mean": total / count if count else 0.0,
        "buckets": {str(k): buckets[k] for k in sorted(buckets)},
    }


__all__ = ["SimResult", "OptCoverage", "COUNTER_SCOPES", "histogram"]
