"""The fill unit proper.

Ties together the collector, branch promotion and the optimization
passes, and installs finished segments into the trace cache after the
configured fill-pipeline latency. Explicit dependency marking is
computed where it is read: by the placement pass, and by the pre-decode
encoder (:mod:`repro.fillunit.predecode`). The fill unit sits
*behind* retirement — off the critical path — which is the paper's
entire argument for doing optimization work here: multi-cycle latencies
through this structure have negligible performance impact (Figure 8).

The passes are deterministic in their input, so the fill unit runs them
once per distinct input: it keeps each sealed segment with the record
of its build, and a rebuild of the same input (typically after an
eviction) reuses that segment in a fresh shell and accounts the same
record again. Only host time changes; the installed segment, the
counters and the hooks are those of a fresh build.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector, PendingSegment
from repro.fillunit.opts.base import (
    BuildRecord,
    OptimizationConfig,
    PassManager,
)
from repro.isa.decoded import Decoded
from repro.tracecache.cache import TraceCache
from repro.tracecache.segment import BranchInfo, TraceSegment

if TYPE_CHECKING:
    from repro.verify import SegmentVerifier

Hooks = Tuple[Callable[..., Any], ...]     # bound observer-stage hooks


@dataclass
class FillUnitConfig:
    """Fill unit structure and policy."""

    max_instrs: int = 16
    max_cond_branches: int = 3
    trace_packing: bool = True
    latency: int = 5
    num_clusters: int = 4
    cluster_size: int = 4
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig)
    #: online verification: statically validate every optimized segment
    #: against its pre-optimization snapshot (see :mod:`repro.verify`).
    verify: bool = False
    #: with :attr:`verify`, additionally snapshot around each pass so a
    #: violation names the offending pass instead of the pipeline.
    verify_each: bool = False


@dataclass
class FillUnitStats:
    segments_built: int = 0
    segments_deduped: int = 0
    #: builds that reused the sealed segment of an identical input
    segments_reused: int = 0
    #: promoted branches in the installed segments
    branches_promoted: int = 0
    #: installed segments by length: ``{instructions: segments}``
    segment_lengths: Dict[int, int] = field(default_factory=dict)


class FillUnit(FillCollector):
    """Collect retired blocks, optimize, install into the trace cache.

    The fill unit is the collector whose :meth:`sink` is the build
    path: every finalized candidate goes straight to it, and the fill
    stage's per-instruction link is :attr:`collect` itself."""

    def __init__(self, config: FillUnitConfig, trace_cache: TraceCache,
                 bias: BiasTable) -> None:
        super().__init__(bias, config.max_instrs,
                         config.max_cond_branches, config.trace_packing)
        self.config = config
        self.trace_cache = trace_cache
        self.verifier: Optional[SegmentVerifier] = None
        if config.verify:
            from repro import verify
            self.verifier = verify.SegmentVerifier(config.optimizations)
        self.passes = PassManager(config.optimizations,
                                  config.num_clusters, config.cluster_size,
                                  bias=bias, verifier=self.verifier,
                                  verify_each=config.verify_each)
        #: the decode table: one record per rewritten decode shape,
        #: shared by every segment this unit builds (the passes reach
        #: it through their context)
        self.decodes: Dict[Tuple[Any, ...], Decoded] = (
            self.passes.context.decodes)
        self.stats = FillUnitStats()
        #: the ``fillunit.opts.*`` telemetry counts, by scope (the
        #: verifier's report holds the ``fillunit.verify.*`` ones)
        self.counts: Dict[str, int] = {}
        #: sealed segments and their build records, by build input
        self._built: Dict[Tuple[Any, ...],
                          Tuple[TraceSegment, BuildRecord]] = {}
        #: segment-hook chains, set by the engine for each run
        self.collect_hooks: Hooks = ()
        self.pass_hooks: Hooks = ()
        self.verify_hooks: Hooks = ()
        self.build_hooks: Hooks = ()

    # ------------------------------------------------------------------

    def assemble_segment(self, candidate: PendingSegment) -> TraceSegment:
        """Assemble the *unoptimized* :class:`TraceSegment` a candidate
        describes (the fill unit's input; also what the verifier
        treats as the original).

        Each entry is a copy of the program instruction and shares its
        decoded record until a pass rewrites it. Its block and flow ids
        are those of :meth:`PendingSegment.region_ids`, counted here as
        the entries are copied."""
        instrs = []
        block = flow = 0
        for idx, record in enumerate(candidate.records):
            source = record.instr
            instr = source.copy()
            instr.block_id = block
            instr.flow_id = flow
            instr.orig_index = idx
            instrs.append(instr)
            decoded = source.decoded
            if decoded.is_ctrl:
                flow += 1
                if decoded.is_cond_branch:
                    block += 1
        branches = [BranchInfo(b.index, b.pc, b.direction, b.promoted)
                    for b in candidate.branches]
        return TraceSegment(
            start_pc=candidate.start_pc, instrs=instrs, branches=branches,
            block_count=instrs[-1].block_id + 1,
            build_promo=tuple(b.promoted for b in candidate.branches))

    def build_segment(self, candidate: PendingSegment,
                      cycle: int = 0) -> TraceSegment:
        """Construct and optimize a :class:`TraceSegment` from a
        candidate, without touching the trace cache (exposed for tests
        and the optimization-tour example).

        The first build of each distinct input is kept. A later
        candidate with the same input gets a fresh shell around that
        sealed segment, sharing everything but ``fill_cycle`` (sealed
        segments are never rewritten), and the first build's record
        is accounted again, so counters, totals and hooks read as if
        the passes had run."""
        is_promoted = self.bias.is_promoted
        # Every input a build reads: the path, each branch's direction
        # (a segment can end on a conditional branch, which the path
        # does not fix), its collect-time promotion (BranchInfo and
        # build_promo) and its live promotion (predication asks the
        # bias table at build time, after retirement may have flipped
        # it). Everything else a pass reads — the optimization config,
        # the cluster geometry and the static instruction at each pc —
        # is fixed for the life of the fill unit.
        key = (candidate.path_key,
               tuple((b.direction, b.promoted, is_promoted(b.pc))
                     for b in candidate.branches))
        built = self._built.get(key)
        if built is None:
            segment = self.assemble_segment(candidate)
            # Per-pass checks compose (equivalence is transitive) and
            # name the offending pass; without them, check the whole
            # pipeline in one step.
            whole = None if self.passes.verify_each else self.verifier
            original = segment.clone() if whole is not None else None
            record = self.passes.run(segment)
            segment.seal(self.decodes)
            if whole is not None and original is not None:
                record.violations = whole.check(original, segment,
                                                record=False)
            self._built[key] = (segment, record)
        else:
            segment, record = replace(built[0]), built[1]
            self.stats.segments_reused += 1
        self._account(segment, record, cycle)
        return segment

    def _account(self, segment: TraceSegment, record: BuildRecord,
                 cycle: int) -> None:
        """Count one installed segment's build record (its violations
        into the verifier's report) and report it to the
        ``pass_applied`` and ``segment_verified`` hooks."""
        counts = self.counts
        last = len(record.passes) - 1
        for index, (name, stats) in enumerate(record.passes):
            for key, count in stats.items():
                if count:
                    scope = f"fillunit.opts.{name}.{key}"
                    counts[scope] = counts.get(scope, 0) + count
            for hook in self.pass_hooks:
                hook(segment, index, name, stats,
                     record.rejections if index == last else {}, cycle)
        for (name, reason), count in record.rejections.items():
            scope = f"fillunit.opts.{name}.rejected.{reason}"
            counts[scope] = counts.get(scope, 0) + count
        verifier = self.verifier
        if verifier is None:
            return
        violations = record.violations
        verifier.report.record(violations, segment.start_pc)
        for hook in self.verify_hooks:
            hook(segment, violations, cycle)

    def sink(self, candidate: PendingSegment, cycle: int) -> None:
        """Build a finalized candidate and install it.

        An identical resident line makes the rebuild redundant: the
        trace cache keeps it hot instead (one refresh, counted as
        deduped)."""
        deduped = self.trace_cache.refresh(
            candidate.start_pc, candidate.path_key,
            tuple([b.promoted for b in candidate.branches]))
        for hook in self.collect_hooks:
            hook(candidate, cycle, deduped)
        stats = self.stats
        if deduped:
            stats.segments_deduped += 1
            return
        segment = self.build_segment(candidate, cycle)
        self.trace_cache.insert(segment, cycle, self.config.latency)
        stats.segments_built += 1
        lengths = stats.segment_lengths
        length = len(segment.instrs)
        lengths[length] = lengths.get(length, 0) + 1
        stats.branches_promoted += sum(1 for b in segment.branches
                                       if b.promoted)
        for hook in self.build_hooks:
            hook(segment, cycle)


__all__ = ["FillUnit", "FillUnitConfig", "FillUnitStats"]
