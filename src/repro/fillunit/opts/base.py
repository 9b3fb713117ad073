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
than the whole pipeline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.branch.bias import BiasTable
from repro.errors import ConfigError
from repro.tracecache.segment import TraceSegment

if TYPE_CHECKING:
    from repro.verify import SegmentVerifier
    from repro.verify.rules import Violation

#: every optimization, in the order the pass manager runs them
PASS_ORDER = ("predication", "cse", "dead_code", "moves", "reassoc",
              "scaled_adds", "placement")


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
        if name not in PASS_ORDER:
            raise ValueError(f"unknown optimization {name!r}; "
                             f"expected one of {sorted(PASS_ORDER)}")
        return cls(**{name: True})

    def enabled_names(self) -> list:
        return [name for name in PASS_ORDER if getattr(self, name)]


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
    bias: Optional[BiasTable] = None
    #: per-segment rejection counts ``{(pass, reason): n}``: why a pass
    #: declined a candidate it matched. Each build starts a fresh dict
    #: and hands it over in its :class:`BuildRecord`.
    rejections: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def reject(self, pass_name: str, reason: str) -> None:
        """A pass matched a candidate but could not transform it."""
        key = (pass_name, reason)
        self.rejections[key] = self.rejections.get(key, 0) + 1


@dataclass
class BuildRecord:
    """What one build reports, for the fill unit to account.

    The fill unit applies a record once per installed segment, whether
    it ran the passes or reused the sealed result of an identical
    earlier build, so both paths count alike.
    """

    #: each pass's ``(name, stats)``, in the order the passes ran
    passes: List[Tuple[str, Dict[str, int]]]
    #: the segment's rejections ``{(pass, reason): n}``
    rejections: Dict[Tuple[str, str], int]
    #: under verification, the violations found (per pass with
    #: ``verify_each``, else filled in by the fill unit after sealing)
    violations: List[Violation] = field(default_factory=list)


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
                 bias: Optional[BiasTable] = None,
                 verifier: Optional[SegmentVerifier] = None,
                 verify_each: bool = False) -> None:
        from repro.fillunit.opts.cse import CommonSubexpressionPass
        from repro.fillunit.opts.deadcode import DeadCodePass
        from repro.fillunit.opts.moves import RegisterMovePass
        from repro.fillunit.opts.placement import PlacementPass
        from repro.fillunit.opts.predication import PredicationPass
        from repro.fillunit.opts.reassoc import ReassociationPass
        from repro.fillunit.opts.scaledadd import ScaledAddPass

        self.context = PassContext(num_clusters, cluster_size, config,
                                   bias=bias)
        classes: Dict[str, Callable[[], OptimizationPass]] = {
            "predication": PredicationPass,
            "cse": CommonSubexpressionPass, "dead_code": DeadCodePass,
            "moves": RegisterMovePass, "reassoc": ReassociationPass,
            "scaled_adds": ScaledAddPass, "placement": PlacementPass}
        self.passes: List[OptimizationPass] = [
            classes[name]() for name in config.enabled_names()]
        # Placement consumes the final dependence structure, so it must
        # run after every rewriting pass — including the extensions,
        # whose docstring drift once suggested otherwise.
        names = [opt_pass.name for opt_pass in self.passes]
        if "placement" in names and names[-1] != "placement":
            raise ConfigError(
                f"placement must be the final pass, got order {names}")
        #: optional :class:`repro.verify.SegmentVerifier`; with
        #: *verify_each*, every pass is checked in isolation against a
        #: pre-pass snapshot so violations name the offending pass.
        self.verifier = verifier
        self.verify_each = bool(verify_each and verifier is not None)

    def run(self, segment: TraceSegment) -> BuildRecord:
        """Apply all passes to *segment*; return what they did.

        The manager only records: the fill unit turns the record into
        counters, totals and ``pass_applied`` hooks."""
        from repro.fillunit.dependency import mark_dependencies

        record = BuildRecord([], {})
        self.context.rejections = record.rejections
        verifier = self.verifier if self.verify_each else None
        for opt_pass in self.passes:
            # Placement consumes the dependence structure produced by
            # the rewriting passes, so (re)mark just before it.
            if opt_pass.name == "placement":
                segment.redecode()
                segment.deps = mark_dependencies(segment.instrs)
            snapshot = segment.clone() if verifier is not None else None
            record.passes.append(
                (opt_pass.name, opt_pass.apply(segment, self.context)))
            if verifier is not None and snapshot is not None:
                record.violations += verifier.check(
                    snapshot, segment, pass_name=opt_pass.name,
                    surface=opt_pass.surface, record=False)
        if segment.deps is None:
            segment.redecode()
            segment.deps = mark_dependencies(segment.instrs)
        return record


__all__ = ["BuildRecord", "OptimizationConfig", "OptimizationPass",
           "PassManager", "PassContext"]
