"""Optimization pass framework.

Each of the paper's four trace optimizations is a pass over a
:class:`~repro.tracecache.segment.TraceSegment`; the
:class:`PassManager` applies the enabled subset in a fixed order: the
extension passes first (predication, CSE, dead code — they create and
consume the move idioms the published passes then exploit), then the
paper's order (moves, reassociation, scaled adds, then placement).
Placement always runs last, whatever subset is enabled, because it
consumes the final dependence structure; the constructor enforces
this.

Passes run inside the fill pipeline, off the critical path; their
*cost* is modelled as the fill-unit latency knob, not per-pass cycles
(the paper varies 1/5/10 cycles for the whole structure and finds the
impact negligible).

For verification, every pass declares its *mutation surface* — the
per-instruction fields and segment structures it is allowed to change.
With :attr:`PassManager.verify_each`, the manager snapshots the
segment around each pass and hands (snapshot, segment, pass, surface)
to a segment verifier, so a violation names the offending pass rather
than the whole pipeline; arbitrary pre/post hooks get the same
snapshots.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.tracecache.segment import TraceSegment


@dataclass
class OptimizationConfig:
    """Which optimizations the fill unit performs.

    The first four are the paper's contributions; ``cse`` and
    ``dead_code`` are the conservative subsets of the extensions the
    paper's conclusion proposes as future work (§5).
    """

    moves: bool = False
    reassoc: bool = False
    scaled_adds: bool = False
    placement: bool = False
    cse: bool = False
    dead_code: bool = False
    predication: bool = False
    #: the paper inhibits reassociation within a basic block (the
    #: compiler already does it there); disable for the ablation run.
    reassoc_cross_flow_only: bool = True
    #: maximum shift distance a scaled add may absorb (2 stored bits
    #: plus the ALU path-length argument give the paper's limit of 3).
    max_scale_shift: int = 3

    @classmethod
    def none(cls) -> "OptimizationConfig":
        """The baseline: no trace optimizations."""
        return cls()

    @classmethod
    def all(cls) -> "OptimizationConfig":
        """The paper's combined configuration (the four published
        optimizations; extensions stay off)."""
        return cls(moves=True, reassoc=True, scaled_adds=True,
                   placement=True)

    @classmethod
    def extended(cls) -> "OptimizationConfig":
        """The paper's four plus its proposed future-work passes."""
        return cls(moves=True, reassoc=True, scaled_adds=True,
                   placement=True, cse=True, dead_code=True,
                   predication=True)

    @classmethod
    def only(cls, name: str) -> "OptimizationConfig":
        """Enable a single optimization by name (figure 3-6 runs)."""
        valid = {"moves", "reassoc", "scaled_adds", "placement",
                 "cse", "dead_code", "predication"}
        if name not in valid:
            raise ValueError(f"unknown optimization {name!r}; "
                             f"expected one of {sorted(valid)}")
        return cls(**{name: True})

    def enabled_names(self) -> list:
        return [name for name in
                ("predication", "cse", "dead_code", "moves", "reassoc",
                 "scaled_adds", "placement")
                if getattr(self, name)]


@dataclass
class PassContext:
    """Microarchitectural facts the passes may exploit.

    The fill unit is not architecturally visible, so it is free to
    tailor its output to the execution engine — here, the cluster
    geometry used by the placement pass.
    """

    num_clusters: int = 4
    cluster_size: int = 4
    config: OptimizationConfig = field(default_factory=OptimizationConfig)
    #: the bias table, when available: lets passes ask whether a branch
    #: is strongly biased (predication skips well-predicted branches).
    bias: object = None
    #: optional telemetry registry; :meth:`reject` records why a pass
    #: declined a candidate it matched (scope
    #: ``fillunit.opts.<pass>.rejected.<reason>``).
    registry: object = None
    #: per-segment rejection counts ``{(pass, reason): n}``, drained by
    #: the pass manager into ``opt.rejected`` events.
    rejections: dict = field(default_factory=dict)

    def reject(self, pass_name: str, reason: str) -> None:
        """A pass matched a candidate but could not transform it."""
        key = (pass_name, reason)
        self.rejections[key] = self.rejections.get(key, 0) + 1
        if self.registry is not None:
            self.registry.counter(
                f"fillunit.opts.{pass_name}.rejected.{reason}").add()


class OptimizationPass(abc.ABC):
    """One trace transformation."""

    name: str = "pass"

    #: The pass's declared mutation surface: per-instruction field
    #: names (``op``, ``rs``, ``imm``, ``scale``, ``guard``, ...) plus
    #: the tokens ``squash`` (may replace instructions with NOPs),
    #: ``slots`` and ``branches``. ``None`` disables surface checking
    #: for the pass. The segment verifier's ``pass-surface`` rule
    #: flags any mutation outside this set.
    surface: Optional[frozenset] = None

    @abc.abstractmethod
    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        """Transform *segment* in place; return ``{stat: count}``.

        An entry is rewritten only through
        :meth:`~repro.tracecache.segment.TraceSegment.rewrite`, which
        marks it for re-decoding; its decoded record is stale until
        then, except for ``dest``, which no pass changes."""


class PassManager:
    """Applies the enabled passes in the paper's order."""

    def __init__(self, config: OptimizationConfig,
                 num_clusters: int = 4, cluster_size: int = 4,
                 bias=None, registry=None, events=None,
                 verifier=None, verify_each: bool = False,
                 spans=None, span_window: float = 0.0) -> None:
        from repro.fillunit.opts.cse import CommonSubexpressionPass
        from repro.fillunit.opts.deadcode import DeadCodePass
        from repro.fillunit.opts.moves import RegisterMovePass
        from repro.fillunit.opts.placement import PlacementPass
        from repro.fillunit.opts.predication import PredicationPass
        from repro.fillunit.opts.reassoc import ReassociationPass
        from repro.fillunit.opts.scaledadd import ScaledAddPass

        self.context = PassContext(num_clusters, cluster_size, config,
                                   bias=bias, registry=registry)
        self.registry = registry
        self.events = events
        #: optional span recorder; each pass gets an even slice of the
        #: fill-pipeline window *span_window* (simulated cycles). The
        #: subdivision is presentational — the paper models pass cost
        #: only as the fill unit's total latency.
        self.spans = spans
        self.span_window = span_window
        self.passes: list = []
        if config.predication:
            self.passes.append(PredicationPass())
        if config.cse:
            self.passes.append(CommonSubexpressionPass())
        if config.dead_code:
            self.passes.append(DeadCodePass())
        if config.moves:
            self.passes.append(RegisterMovePass())
        if config.reassoc:
            self.passes.append(ReassociationPass())
        if config.scaled_adds:
            self.passes.append(ScaledAddPass())
        if config.placement:
            self.passes.append(PlacementPass())
        # Placement consumes the final dependence structure, so it must
        # run after every rewriting pass — including the extensions,
        # whose docstring drift once suggested otherwise.
        names = [opt_pass.name for opt_pass in self.passes]
        if "placement" in names and names[-1] != "placement":
            raise ConfigError(
                f"placement must be the final pass, got order {names}")
        self.totals: dict = {}
        #: optional :class:`repro.verify.SegmentVerifier`; with
        #: *verify_each*, every pass is checked in isolation against a
        #: pre-pass snapshot so violations name the offending pass.
        self.verifier = verifier
        self.verify_each = bool(verify_each and verifier is not None)
        #: hooks ``f(pass_name, segment)`` run before each pass.
        self.pre_pass_hooks: list = []
        #: hooks ``f(pass_name, snapshot, segment, stats)`` run after
        #: each pass; *snapshot* is the pre-pass copy (``None`` unless
        #: verify_each or a post hook is registered).
        self.post_pass_hooks: list = []
        #: violations found by per-pass verification in the last run().
        self.last_violations: list = []

    def run(self, segment: TraceSegment, cycle: int = 0) -> dict:
        """Apply all passes to *segment*; accumulate and return stats.

        When the manager was constructed with a telemetry registry /
        event stream, per-pass counts are mirrored to
        ``fillunit.opts.<pass>.<stat>`` scopes and ``opt.applied`` /
        ``opt.rejected`` events are emitted (one per pass and stat,
        tagged with the segment's start PC).
        """
        from repro.fillunit.dependency import mark_dependencies

        stats: dict = {}
        self.context.rejections.clear()
        self.last_violations = []
        need_snapshot = self.verify_each or bool(self.post_pass_hooks)
        # Span subdivision of the fill-pipeline window: the passes (and
        # the verify step, when enabled) share [cycle, cycle+window)
        # evenly. FillUnit._verify uses the same formula for the last
        # slot — keep them in sync.
        span_share = 0.0
        if self.spans is not None:
            slots = len(self.passes) + (1 if self.verifier is not None
                                        else 0)
            span_share = self.span_window / max(slots, 1)
        for pass_index, opt_pass in enumerate(self.passes):
            # Placement consumes the dependence structure produced by
            # the rewriting passes, so (re)mark just before it.
            if opt_pass.name == "placement":
                segment.redecode()
                segment.deps = mark_dependencies(segment.instrs)
            snapshot = segment.clone() if need_snapshot else None
            for hook in self.pre_pass_hooks:
                hook(opt_pass.name, segment)
            pass_stats = opt_pass.apply(segment, self.context)
            if self.spans is not None:
                self.spans.span(
                    "fillunit", f"pass.{opt_pass.name}",
                    cycle + pass_index * span_share, span_share,
                    start_pc=segment.start_pc,
                    **{k: v for k, v in pass_stats.items() if v})
            for hook in self.post_pass_hooks:
                hook(opt_pass.name, snapshot, segment, pass_stats)
            if self.verify_each:
                self.last_violations += self.verifier.check(
                    snapshot, segment, pass_name=opt_pass.name,
                    surface=opt_pass.surface, record=False)
            for key, count in pass_stats.items():
                stats[key] = stats.get(key, 0) + count
            if self.registry is not None:
                for key, count in pass_stats.items():
                    if count:
                        self.registry.counter(
                            f"fillunit.opts.{opt_pass.name}.{key}"
                        ).add(count)
            if self.events is not None:
                for key, count in pass_stats.items():
                    if count:
                        self.events.emit(
                            "opt.applied", cycle,
                            opt=opt_pass.name, stat=key, count=count,
                            start_pc=segment.start_pc)
        if self.events is not None:
            for (name, reason), count in self.context.rejections.items():
                self.events.emit("opt.rejected", cycle, opt=name,
                                 reason=reason, count=count,
                                 start_pc=segment.start_pc)
        if segment.deps is None:
            segment.redecode()
            segment.deps = mark_dependencies(segment.instrs)
        for key, count in stats.items():
            self.totals[key] = self.totals.get(key, 0) + count
        return stats


__all__ = ["OptimizationConfig", "OptimizationPass", "PassManager",
           "PassContext"]
