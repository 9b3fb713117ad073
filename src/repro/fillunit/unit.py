"""The fill unit proper.

Ties together the collector, branch promotion, dependency marking and
the optimization passes, and installs finished segments into the trace
cache after the configured fill-pipeline latency. The fill unit sits
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
from repro.machine.tracing import CommittedInstr
from repro.telemetry.registry import Counter, TelemetryRegistry
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


class FillUnit:
    """Collect retired blocks, optimize, install into the trace cache."""

    def __init__(self, config: FillUnitConfig, trace_cache: TraceCache,
                 bias: BiasTable,
                 registry: Optional[TelemetryRegistry] = None) -> None:
        self.config = config
        self.trace_cache = trace_cache
        self.bias = bias
        # The collector hands every finalized candidate straight to
        # the build path; the fill stage feeds it directly.
        self.collector = FillCollector(
            bias, config.max_instrs, config.max_cond_branches,
            config.trace_packing, sink=self._build)
        self.verifier: Optional[SegmentVerifier] = None
        if config.verify:
            from repro import verify
            self.verifier = verify.SegmentVerifier(config.optimizations)
        if registry is None:
            registry = TelemetryRegistry()
        self.registry = registry
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
        #: pass stats summed over every installed build
        self.totals: Dict[str, int] = {}
        #: sealed segments and their build records, by build input
        self._built: Dict[Tuple[Any, ...],
                          Tuple[TraceSegment, BuildRecord]] = {}
        #: segment-hook chains, set by the engine for each run
        self.collect_hooks: Hooks = ()
        self.pass_hooks: Hooks = ()
        self.verify_hooks: Hooks = ()
        self.build_hooks: Hooks = ()
        self._m_built = registry.counter("fillunit.segments.built")
        self._m_deduped = registry.counter("fillunit.segments.deduped")
        self._m_promoted = registry.counter("fillunit.branches.promoted")
        self._h_length = registry.histogram("fillunit.segment.length")
        #: ``fillunit.opts.<pass>.<stat>`` counters, made on first use
        self._opt_counters: Dict[Tuple[str, str], Counter] = {}
        if self.verifier is not None:
            self._m_checked = registry.counter(
                "fillunit.verify.segments_checked")
            self._m_clean = registry.counter(
                "fillunit.verify.segments_clean")

    # ------------------------------------------------------------------

    def retire(self, record: CommittedInstr, cycle: int) -> None:
        """Feed one retired instruction at retirement *cycle* (the
        engine's fill stage calls ``collector.feed`` itself)."""
        self.collector.feed(record, cycle)

    def note_fetch_miss(self, pc: int) -> None:
        """The fetch engine missed the trace cache at *pc*: align an
        upcoming segment boundary to it (miss-driven construction)."""
        self.collector.note_fetch_miss(pc)

    def assemble_segment(self, candidate: PendingSegment) -> TraceSegment:
        """Assemble the *unoptimized* :class:`TraceSegment` a candidate
        describes (the fill unit's input; also what the verifier and
        ``tools/lint_segments.py`` treat as the original).

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
        """Count one installed segment's build record and report it to
        the ``pass_applied`` and ``segment_verified`` hooks."""
        registry, totals = self.registry, self.totals
        last = len(record.passes) - 1
        for index, (name, stats) in enumerate(record.passes):
            for key, count in stats.items():
                totals[key] = totals.get(key, 0) + count
                if count:
                    self._opt_counter(name, key).add(count)
            for hook in self.pass_hooks:
                hook(segment, index, name, stats,
                     record.rejections if index == last else {}, cycle)
        for (name, reason), count in record.rejections.items():
            self._opt_counter(name, f"rejected.{reason}").add(count)
        verifier = self.verifier
        if verifier is None:
            return
        violations = record.violations
        verifier.report.record(violations)
        self._m_checked.add()
        if not any(v.severity == "error" for v in violations):
            self._m_clean.add()
        for violation in violations:
            scope_rule = violation.rule.replace("-", "_")
            registry.counter(
                f"fillunit.verify.violations.{scope_rule}").add()
        for hook in self.verify_hooks:
            hook(segment, violations, cycle)

    def _opt_counter(self, name: str, stat: str) -> Counter:
        """The ``fillunit.opts.<name>.<stat>`` counter."""
        counter = self._opt_counters.get((name, stat))
        if counter is None:
            counter = self._opt_counters[(name, stat)] = (
                self.registry.counter(f"fillunit.opts.{name}.{stat}"))
        return counter

    def _build(self, candidate: PendingSegment, cycle: int) -> None:
        # An identical resident line makes the rebuild redundant: the
        # trace cache keeps it hot instead.
        deduped = self.trace_cache.refresh(
            candidate.start_pc, candidate.path_key,
            tuple([b.promoted for b in candidate.branches]))
        for hook in self.collect_hooks:
            hook(candidate, cycle, deduped)
        if deduped:
            self.stats.segments_deduped += 1
            self._m_deduped.add()
            return
        segment = self.build_segment(candidate, cycle)
        self.trace_cache.insert(segment, cycle, self.config.latency)
        self.stats.segments_built += 1
        self._m_built.add()
        self._h_length.observe(len(segment.instrs))
        promoted = sum(1 for b in segment.branches if b.promoted)
        if promoted:
            self._m_promoted.add(promoted)
        for hook in self.build_hooks:
            hook(segment, cycle)

    @property
    def pass_totals(self) -> Dict[str, int]:
        """Accumulated optimization counts across all built segments."""
        return dict(self.totals)


__all__ = ["FillUnit", "FillUnitConfig", "FillUnitStats"]
