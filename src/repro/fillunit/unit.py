"""The fill unit proper.

Ties together the collector, branch promotion and the optimization
passes, and installs finished segments into the trace cache after the
configured fill-pipeline latency. Explicit dependency marking is
computed where it is read, by the placement pass. The fill unit sits
*behind* retirement — off the critical path — which is the paper's
entire argument for doing optimization work here: multi-cycle latencies
through this structure have negligible performance impact (Figure 8).

The passes are deterministic in their input, so the fill unit runs them
once per distinct input: it keeps each sealed segment with the record
of its build, and a rebuild of the same input (typically after an
eviction) installs that segment again and accounts the same record
again. Only host time changes; the installed segment, the counters and
the hooks are those of a fresh build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector, PendingSegment
from repro.fillunit.opts.base import BuildRecord, PassManager
from repro.isa.decoded import Decoded
from repro.tracecache.cache import TraceCache
from repro.tracecache.segment import TraceSegment

if TYPE_CHECKING:
    # Type-only: repro.core.config imports this package (through
    # repro.fillunit.opts), so a runtime import would be a cycle.
    from repro.core.config import SimConfig
    from repro.verify import SegmentVerifier

Hooks = Tuple[Callable[..., Any], ...]     # bound observer-stage hooks


@dataclass
class FillUnitStats:
    """What the fill unit alone knows of its installs (the trace cache
    counts the fills and refreshes themselves)."""

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
    stage's per-instruction link is :attr:`collect` itself.

    It is configured by the machine's :class:`~repro.core.config.
    SimConfig` (line limits from ``trace_cache``, ``trace_packing``,
    ``fill_latency``, the cluster geometry, ``optimizations``,
    ``verify_fill`` and ``verify_each_pass``) and builds the trace
    cache it fills from ``config.trace_cache``, so the lines it
    collects and the lines the cache holds have one limit."""

    def __init__(self, config: SimConfig, bias: BiasTable) -> None:
        lines = config.trace_cache
        super().__init__(bias, lines.max_instrs, lines.max_cond_branches,
                         config.trace_packing)
        self.config = config
        self.trace_cache = TraceCache(lines)
        self.verifier: Optional[SegmentVerifier] = None
        if config.verify_fill:
            from repro import verify
            self.verifier = verify.SegmentVerifier(config.optimizations)
        self.passes = PassManager(config.optimizations,
                                  config.num_clusters, config.cluster_size,
                                  bias=bias, verifier=self.verifier,
                                  verify_each=config.verify_each_pass)
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

        Its entries are the candidate's program instructions, and its
        branch records and path the candidate's; the segment counts
        its own region ids."""
        branches = candidate.branches
        return TraceSegment(
            start_pc=candidate.start_pc,
            instrs=[record.instr for record in candidate.records],
            branches=list(branches),
            build_promo=tuple([b.promoted for b in branches]),
            path_key=candidate.path_key)

    def build_segment(self, candidate: PendingSegment,
                      cycle: int = 0) -> TraceSegment:
        """Construct and optimize a :class:`TraceSegment` from a
        candidate, without touching the trace cache (exposed for tests
        and the optimization-tour example).

        The first build of each distinct input is sealed, validated
        against the trace cache's line limits and kept. A later
        candidate with the same input gets that sealed segment itself
        (nothing writes a sealed segment, the trace cache included),
        and the first build's record is accounted again, so counters,
        totals and hooks read as if the passes had run.

        Raises:
            SegmentError: if the passes leave a segment the trace
                cache cannot hold.
        """
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
            lines = self.config.trace_cache
            segment.validate(lines.max_instrs, lines.max_cond_branches)
            if whole is not None and original is not None:
                record.violations = whole.check(original, segment,
                                                record=False)
            self._built[key] = (segment, record)
        else:
            segment, record = built
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
        trace cache keeps it hot instead (one refresh, the deduped
        count)."""
        deduped = self.trace_cache.refresh(
            candidate.start_pc, candidate.path_key,
            tuple([b.promoted for b in candidate.branches]))
        for hook in self.collect_hooks:
            hook(candidate, cycle, deduped)
        if deduped:
            return
        segment = self.build_segment(candidate, cycle)
        self.trace_cache.insert(segment, cycle, self.config.fill_latency)
        stats = self.stats
        lengths = stats.segment_lengths
        length = len(segment.instrs)
        lengths[length] = lengths.get(length, 0) + 1
        stats.branches_promoted += sum(1 for b in segment.branches
                                       if b.promoted)
        for hook in self.build_hooks:
            hook(segment, cycle)


__all__ = ["FillUnit", "FillUnitStats"]
