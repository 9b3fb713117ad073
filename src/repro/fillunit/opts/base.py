"""Optimization pass framework.

Each of the paper's four trace optimizations is a pass over a
:class:`~repro.tracecache.segment.TraceSegment`; the
:class:`PassManager` applies the enabled subset in a fixed order: the
predication extension first (it converts only unannotated
instructions, so it runs before the paper's passes annotate any), then
the paper's order (moves, reassociation, scaled adds, then placement).
Placement always runs last, whatever subset is enabled, because it
consumes the final dependence structure; the constructor enforces
this.

Passes run inside the fill pipeline, off the critical path; their
*cost* is modelled as the fill-unit latency knob, not per-pass cycles
(the paper varies 1/5/10 cycles for the whole structure and finds the
impact negligible).

For verification, every pass declares its *mutation surface* — the
per-instruction fields and segment structures it is allowed to change.
When the manager has a segment verifier, it snapshots the segment
before each pass and hands (snapshot, segment, pass, surface) to it,
so every violation names the pass that caused it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.branch.bias import BiasTable
from repro.configcheck import check_field_types
from repro.errors import ConfigError
from repro.isa.decoded import Decoded
from repro.tracecache.segment import TraceSegment

if TYPE_CHECKING:
    from repro.verify import SegmentVerifier
    from repro.verify.rules import Violation

#: every optimization, in the order the pass manager runs them
PASS_ORDER = ("predication", "moves", "reassoc", "scaled_adds",
              "placement")


@dataclass
class OptimizationConfig:
    """Which optimizations the fill unit performs.

    The first four are the paper's contributions; ``predication`` is
    the dynamic predication its conclusion proposes as future work
    (§5).
    """

    moves: bool = False
    reassoc: bool = False
    scaled_adds: bool = False
    placement: bool = False
    predication: bool = False
    #: the paper inhibits reassociation within a basic block (the
    #: compiler already does it there); disable for the ablation run.
    reassoc_cross_flow_only: bool = True
    #: maximum shift distance a scaled add may absorb (2 stored bits
    #: plus the ALU path-length argument give the paper's limit of 3).
    max_scale_shift: int = 3

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.max_scale_shift < 0:
            raise ConfigError(f"max_scale_shift must be at least 0, got "
                              f"{self.max_scale_shift}")

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
        """The paper's four plus dynamic predication."""
        return cls(moves=True, reassoc=True, scaled_adds=True,
                   placement=True, predication=True)

    @classmethod
    def only(cls, name: str) -> "OptimizationConfig":
        """Enable a single optimization by name (figure 3-6 runs)."""
        if name not in PASS_ORDER:
            raise ConfigError(f"unknown optimization {name!r}; "
                             f"expected one of {sorted(PASS_ORDER)}")
        return cls(**{name: True})

    @classmethod
    def named(cls, name: str) -> "OptimizationConfig":
        """The set an ``--opts`` name stands for: ``none``, ``all``,
        ``extended`` or a single pass name (see :meth:`only`)."""
        if name in ("none", "all", "extended"):
            return getattr(cls, name)()
        return cls.only(name)

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
    #: the fill unit's decode table: one record per rewritten decode
    #: shape (:meth:`~repro.tracecache.segment.TraceSegment.redecode`)
    decodes: Dict[Tuple[Any, ...], Decoded] = field(default_factory=dict)

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
    #: under verification, the violations each pass's check found
    violations: List[Violation] = field(default_factory=list)


class OptimizationPass(abc.ABC):
    """One trace transformation."""

    name: str = "pass"

    @property
    @abc.abstractmethod
    def surface(self) -> frozenset:
        """The pass's declared mutation surface: per-instruction field
        names (``op``, ``rs``, ``imm``, ``scale``, ``guard``, ...) plus
        the tokens ``squash`` (may replace instructions with NOPs),
        ``slots`` and ``branches``. Every pass sets it as a class
        attribute; the segment verifier's ``pass-surface`` rule flags
        any mutation outside it."""

    @abc.abstractmethod
    def apply(self, segment: TraceSegment, ctx: PassContext) -> dict:
        """Transform *segment* in place; return ``{stat: count}``.

        An entry is rewritten only through
        :meth:`~repro.tracecache.segment.TraceSegment.rewrite` (or
        replaced through ``squash``), which marks it for re-decoding;
        its decoded record is stale until then, except for ``dest``,
        which no pass changes. The record of an entry not in
        ``segment.rewritten`` is current."""


class PassManager:
    """Applies the enabled passes in the paper's order."""

    def __init__(self, config: OptimizationConfig,
                 num_clusters: int = 4, cluster_size: int = 4,
                 bias: Optional[BiasTable] = None,
                 verifier: Optional[SegmentVerifier] = None) -> None:
        from repro.fillunit.opts.moves import RegisterMovePass
        from repro.fillunit.opts.placement import PlacementPass
        from repro.fillunit.opts.predication import PredicationPass
        from repro.fillunit.opts.reassoc import ReassociationPass
        from repro.fillunit.opts.scaledadd import ScaledAddPass

        self.context = PassContext(num_clusters, cluster_size, config,
                                   bias=bias)
        classes: Dict[str, Callable[[], OptimizationPass]] = {
            "predication": PredicationPass,
            "moves": RegisterMovePass, "reassoc": ReassociationPass,
            "scaled_adds": ScaledAddPass, "placement": PlacementPass}
        self.passes: List[OptimizationPass] = [
            classes[name]() for name in config.enabled_names()]
        # Placement consumes the final dependence structure, so it must
        # run after every rewriting pass, predication included.
        names = [opt_pass.name for opt_pass in self.passes]
        if "placement" in names and names[-1] != "placement":
            raise ConfigError(
                f"placement must be the final pass, got order {names}")
        #: optional :class:`repro.verify.SegmentVerifier`: every pass
        #: is checked in isolation against a pre-pass snapshot, so each
        #: violation names the pass that caused it.
        self.verifier = verifier

    def run(self, segment: TraceSegment) -> BuildRecord:
        """Apply all passes to *segment*; return what they did.

        The manager only records: the fill unit turns the record into
        counters, totals and ``pass_applied`` hooks. It marks no
        dependencies: placement, their one reader on the build path,
        marks the segment it places."""
        record = BuildRecord([], {})
        self.context.rejections = record.rejections
        verifier = self.verifier
        for opt_pass in self.passes:
            snapshot = segment.clone() if verifier is not None else None
            record.passes.append(
                (opt_pass.name, opt_pass.apply(segment, self.context)))
            if verifier is not None and snapshot is not None:
                record.violations += verifier.check(
                    snapshot, segment, opt_pass.name, opt_pass.surface)
        return record


__all__ = ["BuildRecord", "OptimizationConfig", "OptimizationPass",
           "PassManager", "PassContext"]
