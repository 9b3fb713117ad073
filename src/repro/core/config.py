"""Machine configuration: every parameter of the simulated processor.

``SimConfig.paper()`` reproduces the paper's machine (§3, Experimental
model); ``SimConfig.tiny()`` is a scaled-down variant for fast unit
tests. All figure/table experiments are expressed as deltas on top of
``paper()`` (which optimizations the fill unit runs, and the fill
pipeline latency).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

from repro.branch.predictor import PredictorConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.configcheck import check_field_types
from repro.errors import ConfigError
from repro.fillunit.opts.base import OptimizationConfig
from repro.tracecache.cache import TraceCacheConfig

#: nested config dataclass per SimConfig field (serialization schema).
_NESTED_TYPES = {
    "predictor": PredictorConfig,
    "hierarchy": HierarchyConfig,
    "trace_cache": TraceCacheConfig,
    "optimizations": OptimizationConfig,
}


@dataclass
class SimConfig:
    """All machine parameters."""

    # Issue/retire widths (paper: 16-wide front and back end). Fetch
    # width is the trace cache line (``trace_cache.max_instrs``) on a
    # hit and ``ic_fetch_width`` on an instruction-cache fetch.
    issue_width: int = 16
    retire_width: int = 16
    #: checkpoints creatable per cycle, one per block supplied (paper: 3)
    max_blocks_per_cycle: int = 3
    #: outstanding checkpoints (checkpoint repair's storage): a new
    #: conditional branch cannot rename while this many older branches
    #: are still unresolved
    max_checkpoints: int = 32
    #: instruction-cache fetch is block-granular: one line per cycle
    ic_fetch_width: int = 8

    # Execution backend: 4 symmetric clusters of 4 universal FUs.
    num_clusters: int = 4
    cluster_size: int = 4
    rs_per_fu: int = 32
    cross_cluster_penalty: int = 1
    #: in-flight instruction window (checkpoint-repair bounded)
    window_size: int = 256

    # Control flow.
    mispredict_redirect: int = 1
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    #: charge wrong-path fetch I-cache pollution on mispredicts
    #: (requires the Program to be supplied to the run; see
    #: repro.core.wrongpath).
    model_wrong_path: bool = False

    # Memory system.
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    store_forward_window: int = 128

    # Trace cache + fill unit.
    trace_cache_enabled: bool = True
    trace_cache: TraceCacheConfig = field(default_factory=TraceCacheConfig)
    trace_packing: bool = True
    fill_latency: int = 5
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig)
    #: statically verify every optimized segment against its
    #: pre-optimization snapshot (see :mod:`repro.verify`); outcomes
    #: accumulate in ``fill_unit.verifier.report`` (what ``repro run
    #: --verify`` prints) and surface as ``fillunit.verify.*``
    #: counters and ``verify.violation`` events.
    verify_fill: bool = False
    #: with :attr:`verify_fill`, check each optimization pass in
    #: isolation so a violation names the offending pass (``run
    #: --verify`` sets both); without it, one check covers the whole
    #: pipeline.
    verify_each_pass: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("issue_width", "retire_width", "max_blocks_per_cycle",
                     "ic_fetch_width", "num_clusters", "cluster_size",
                     "rs_per_fu"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("cross_cluster_penalty", "mispredict_redirect",
                     "store_forward_window"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be at least 0, got {getattr(self, name)}")
        if self.num_clusters * self.cluster_size > self.issue_width:
            raise ConfigError(
                "more functional units than issue slots: "
                f"{self.num_clusters}x{self.cluster_size} vs "
                f"{self.issue_width}")
        # Fetch entry k takes issue slot k, which feeds functional unit
        # k: a fetch group may not be wider than the FU count.
        if self.ic_fetch_width > self.num_fus:
            raise ConfigError(
                f"ic_fetch_width {self.ic_fetch_width} exceeds the "
                f"{self.num_fus} functional units")
        if self.trace_cache_enabled \
                and self.trace_cache.max_instrs > self.num_fus:
            raise ConfigError(
                f"trace cache lines of {self.trace_cache.max_instrs} "
                f"instructions exceed the {self.num_fus} functional units")
        if self.window_size < self.trace_cache.max_instrs:
            raise ConfigError("window smaller than one fetch group")
        if self.fill_latency < 1:
            raise ConfigError("fill latency is at least one cycle")
        if self.max_checkpoints < 1:
            raise ConfigError("need at least one checkpoint")
        if self.verify_each_pass and not self.verify_fill:
            raise ConfigError(
                "verify_each_pass requires verify_fill")

    # ------------------------------------------------------------------

    @property
    def num_fus(self) -> int:
        return self.num_clusters * self.cluster_size

    @classmethod
    def paper(cls, optimizations: OptimizationConfig = None,
              fill_latency: int = 5) -> "SimConfig":
        """The paper's baseline machine, with the given fill-unit
        optimization set (none, by default: the measured baseline)."""
        opts = optimizations if optimizations is not None \
            else OptimizationConfig.none()
        return cls(optimizations=opts, fill_latency=fill_latency)

    @classmethod
    def tiny(cls, optimizations: OptimizationConfig = None) -> "SimConfig":
        """A scaled-down machine for fast unit tests: small predictor
        and caches, small window, low promotion threshold."""
        opts = optimizations if optimizations is not None \
            else OptimizationConfig.none()
        predictor = PredictorConfig().scaled(256)
        predictor.promote_threshold = 8
        hierarchy = HierarchyConfig(
            l1i_size=1024, l1d_size=4096, l2_size=65536)
        return cls(
            optimizations=opts,
            predictor=predictor,
            hierarchy=hierarchy,
            trace_cache=TraceCacheConfig(num_sets=64, assoc=4),
            window_size=64,
            fill_latency=3,
        )

    # ------------------------------------------------------------------
    # Serialization (pool payloads, config fingerprinting)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dict capturing every field, nested configs
        included. ``from_dict`` round-trips it exactly; the exec
        layer's config fingerprint is a stable hash of this form."""
        payload = asdict(self)
        # JSON has no tuples; normalize so to_dict(from_dict(json)) is
        # stable regardless of whether the data crossed a JSON hop.
        payload["predictor"]["pht_entries"] = list(
            self.predictor.pht_entries)
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Rebuild a :class:`SimConfig` from :meth:`to_dict` output.

        Raises:
            ConfigError: on unknown keys (typo'd sweep declarations
                must not silently fall back to defaults), on a value
                whose type is not its field's (a nested config must be
                a dict, an int field takes no bool, float or string)
                or on values rejected by the usual construction-time
                validation.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown SimConfig field(s): {sorted(unknown)}")
        kwargs = dict(data)
        for name, nested_type in _NESTED_TYPES.items():
            if name not in kwargs:
                continue
            if not isinstance(kwargs[name], dict):
                raise ConfigError(
                    f"{name} must be a dict, got {kwargs[name]!r}")
            nested = dict(kwargs[name])
            extra = set(nested) - {f.name for f in fields(nested_type)}
            if extra:
                raise ConfigError(
                    f"unknown {name} field(s): {sorted(extra)}")
            if name == "predictor" \
                    and isinstance(nested.get("pht_entries"), list):
                nested["pht_entries"] = tuple(nested["pht_entries"])
            try:
                kwargs[name] = nested_type(**nested)
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        return cls(**kwargs)

    def with_optimizations(self, opts: OptimizationConfig) -> "SimConfig":
        """A copy of this configuration with a different fill-unit
        optimization set (the per-figure experiment pattern)."""
        return replace(self, optimizations=opts)


__all__ = ["SimConfig"]
