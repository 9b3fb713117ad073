"""The fill unit proper.

Ties together the collector, branch promotion, dependency marking and
the optimization passes, and installs finished segments into the trace
cache after the configured fill-pipeline latency. The fill unit sits
*behind* retirement — off the critical path — which is the paper's
entire argument for doing optimization work here: multi-cycle latencies
through this structure have negligible performance impact (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector, PendingSegment
from repro.fillunit.opts.base import OptimizationConfig, PassManager
from repro.tracecache.cache import TraceCache
from repro.tracecache.segment import BranchInfo, TraceSegment


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
    instructions_collected: int = 0


class FillUnit:
    """Collect retired blocks, optimize, install into the trace cache."""

    def __init__(self, config: FillUnitConfig, trace_cache: TraceCache,
                 bias: BiasTable, registry=None, events=None,
                 spans=None) -> None:
        self.config = config
        self.trace_cache = trace_cache
        self.bias = bias
        self.collector = FillCollector(
            bias, config.max_instrs, config.max_cond_branches,
            config.trace_packing)
        self.verifier = None
        if config.verify:
            from repro.verify import SegmentVerifier
            self.verifier = SegmentVerifier(config.optimizations)
        self.passes = PassManager(config.optimizations,
                                  config.num_clusters, config.cluster_size,
                                  bias=bias, registry=registry,
                                  events=events, verifier=self.verifier,
                                  verify_each=config.verify_each,
                                  spans=spans,
                                  span_window=float(config.latency))
        self.stats = FillUnitStats()
        self.registry = registry
        self.events = events
        #: optional span recorder (timeline tracing; see
        #: repro.telemetry.spans). None keeps the retire path branch-free
        #: beyond a single test per instruction.
        self.spans = spans
        #: retire cycle at which the currently-collecting segment
        #: started (span bookkeeping only).
        self._collect_start = None
        #: optional {"moves"|"reassoc"|"scaled": set of PCs} sink; when
        #: set (by the harness cross-checker), every built segment's
        #: transformed instruction addresses are recorded per opt
        #: class. Plain Python bookkeeping outside the timing model:
        #: modelled cycle counts are unaffected.
        self.opt_site_log = None
        if registry is not None:
            self._m_built = registry.counter("fillunit.segments.built")
            self._m_deduped = registry.counter("fillunit.segments.deduped")
            self._m_promoted = registry.counter(
                "fillunit.branches.promoted")
            self._h_length = registry.histogram("fillunit.segment.length")
            if self.verifier is not None:
                self._m_checked = registry.counter(
                    "fillunit.verify.segments_checked")
                self._m_clean = registry.counter(
                    "fillunit.verify.segments_clean")

    # ------------------------------------------------------------------

    def retire(self, record, cycle: int) -> None:
        """Feed one retired instruction at retirement *cycle*."""
        self.stats.instructions_collected += 1
        if self.spans is None:
            for candidate in self.collector.add(record):
                self._build(candidate, cycle)
            return
        # Traced path: bracket each candidate with its collection
        # window (first contributing retire -> finalizing retire).
        if self._collect_start is None:
            self._collect_start = cycle
        candidates = self.collector.add(record)
        for candidate in candidates:
            self.spans.span(
                "fillunit", "segment.collect", self._collect_start,
                cycle - self._collect_start,
                start_pc=candidate.start_pc, instrs=len(candidate))
            self._build(candidate, cycle)
        if candidates:
            # The current retire may already have opened the next
            # pending segment; approximate its window start as now.
            self._collect_start = cycle

    def note_fetch_miss(self, pc: int) -> None:
        """The fetch engine missed the trace cache at *pc*: align an
        upcoming segment boundary to it (miss-driven construction)."""
        self.collector.note_fetch_miss(pc)

    def assemble_segment(self, candidate: PendingSegment) -> TraceSegment:
        """Assemble the *unoptimized* :class:`TraceSegment` a candidate
        describes (the fill unit's input; also what the verifier and
        ``tools/lint_segments.py`` treat as the original).

        Each entry is a copy of the program instruction and shares its
        decoded record until a pass rewrites it."""
        block_ids, flow_ids = candidate.region_ids()
        instrs = []
        for idx, record in enumerate(candidate.records):
            instr = record.instr.copy()
            instr.block_id = block_ids[idx]
            instr.flow_id = flow_ids[idx]
            instr.orig_index = idx
            instrs.append(instr)
        branches = [BranchInfo(b.index, b.pc, b.direction, b.promoted)
                    for b in candidate.branches]
        return TraceSegment(
            start_pc=candidate.start_pc, instrs=instrs, branches=branches,
            block_count=block_ids[-1] + 1,
            build_promo=tuple(b.promoted for b in candidate.branches))

    def build_segment(self, candidate: PendingSegment,
                      cycle: int = 0) -> TraceSegment:
        """Construct and optimize a :class:`TraceSegment` from a
        candidate, without touching the trace cache (exposed for tests
        and the optimization-tour example)."""
        segment = self.assemble_segment(candidate)
        original = (segment.clone() if self.verifier is not None
                    else None)
        self.passes.run(segment, cycle)
        segment.seal()
        log = self.opt_site_log
        if log is not None:
            for instr in segment.instrs:
                if instr.move_flag:
                    log["moves"].add(instr.pc)
                if instr.reassociated:
                    log["reassoc"].add(instr.pc)
                if instr.scale is not None:
                    log["scaled"].add(instr.pc)
        if self.verifier is not None:
            self._verify(original, segment, cycle)
        return segment

    def _verify(self, original: TraceSegment, optimized: TraceSegment,
                cycle: int) -> None:
        """Validate one rewrite; mirror outcomes to telemetry.

        With per-pass verification the pass manager already checked
        every (snapshot, pass) transition — and equivalence is
        transitive, so those checks subsume the whole-pipeline one
        while naming the offending pass. Otherwise validate the whole
        pipeline's composition in one step.
        """
        if self.passes.verify_each:
            violations = list(self.passes.last_violations)
        else:
            violations = self.verifier.check(original, optimized,
                                             record=False)
        self.verifier.report.record(violations)
        if self.spans is not None:
            # The verify step takes the last slot of the fill-pipeline
            # window (the passes share the preceding slots; see
            # PassManager.run — same subdivision).
            share = self.config.latency / (len(self.passes.passes) + 1)
            start = cycle + len(self.passes.passes) * share
            self.spans.span(
                "fillunit", "segment.verify", start,
                cycle + self.config.latency - start,
                start_pc=optimized.start_pc,
                violations=len(violations))
        if self.registry is not None:
            self._m_checked.add()
            if not any(v.severity == "error" for v in violations):
                self._m_clean.add()
            for violation in violations:
                scope_rule = violation.rule.replace("-", "_")
                self.registry.counter(
                    f"fillunit.verify.violations.{scope_rule}").add()
        if self.events is not None:
            for violation in violations:
                self.events.emit(
                    "verify.violation", cycle,
                    start_pc=optimized.start_pc,
                    opt=violation.pass_name or "(pipeline)",
                    rule=violation.rule, severity=violation.severity,
                    index=violation.index, message=violation.message)

    def _build(self, candidate: PendingSegment, cycle: int) -> None:
        path_key = candidate.path_key
        resident = self.trace_cache.probe(candidate.start_pc, path_key)
        if resident is not None:
            promo = tuple(b.promoted for b in candidate.branches)
            if promo == resident.build_promo:
                # Identical segment already resident: the rebuild is
                # redundant; keep the line hot instead of re-optimizing.
                self.trace_cache.touch(candidate.start_pc, path_key)
                self.stats.segments_deduped += 1
                if self.registry is not None:
                    self._m_deduped.add()
                if self.events is not None:
                    self.events.emit("segment.deduped", cycle,
                                     start_pc=candidate.start_pc)
                return
            # Same path but promotion state changed: rebuild so the
            # line's embedded static predictions track the bias table.
        if self.spans is not None:
            # The fill pipeline occupies [cycle, cycle + latency); the
            # per-pass (and verify) sub-spans nest inside this window.
            self.spans.span(
                "fillunit", "segment.optimize", cycle,
                self.config.latency, start_pc=candidate.start_pc,
                instrs=len(candidate))
        segment = self.build_segment(candidate, cycle)
        self.trace_cache.insert(segment, cycle, self.config.latency)
        self.stats.segments_built += 1
        promoted = sum(1 for b in segment.branches if b.promoted)
        if self.registry is not None:
            self._m_built.add()
            self._h_length.observe(len(segment.instrs))
            if promoted:
                self._m_promoted.add(promoted)
        if self.events is not None:
            self.events.emit(
                "segment.built", cycle, start_pc=segment.start_pc,
                instrs=len(segment.instrs), blocks=segment.block_count,
                branches=len(segment.branches), promoted=promoted)
            for info in segment.branches:
                if info.promoted:
                    self.events.emit("branch.promoted", cycle,
                                     pc=info.pc,
                                     direction=info.direction,
                                     start_pc=segment.start_pc)

    @property
    def pass_totals(self) -> dict:
        """Accumulated optimization counts across all built segments."""
        return dict(self.passes.totals)


__all__ = ["FillUnit", "FillUnitConfig", "FillUnitStats"]
