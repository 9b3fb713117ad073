"""The paper's multiple-branch predictor.

Three separate pattern history tables of 2-bit counters predict the
first, second and third conditional branch of a fetch group
respectively. Because branch promotion removes strongly biased branches
from the dynamic-prediction stream, the tables are skewed: 64K, 16K and
8K entries (roughly 32KB of predictor state including the 8KB bias
table).

Promoted branches are predicted statically from their embedded
direction and do not consume a PHT slot — the caller (fetch engine /
fill unit) decides promotion via the :class:`~repro.branch.bias.BiasTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.branch.bias import BiasTable
from repro.branch.btb import BranchTargetBuffer
from repro.branch.pht import GlobalHistory, PatternHistoryTable
from repro.branch.ras import ReturnAddressStack
from repro.configcheck import check_field_types
from repro.errors import ConfigError


@dataclass
class PredictorConfig:
    """Sizing knobs for the whole prediction complex."""

    pht_entries: Tuple[int, ...] = (65536, 16384, 8192)
    history_bits: int = 12
    bias_entries: int = 8192
    promote_threshold: int = 64
    ras_depth: int = 16
    btb_entries: int = 512

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.pht_entries:
            raise ConfigError(
                f"pht_entries must be a non-empty sequence of table "
                f"sizes, got {self.pht_entries!r}")
        for entries in (*self.pht_entries, self.bias_entries,
                        self.btb_entries):
            if entries <= 0 or entries & (entries - 1):
                raise ConfigError(
                    f"predictor table size {entries!r} must be a "
                    f"positive power of two")
        if self.history_bits < 0 or self.ras_depth < 0:
            raise ConfigError("history_bits and ras_depth must be >= 0")
        if self.promote_threshold < 1:
            raise ConfigError("promotion threshold must be positive")

    def scaled(self, factor: int) -> "PredictorConfig":
        """A uniformly smaller configuration (for fast tests)."""
        return PredictorConfig(
            pht_entries=tuple(max(16, e // factor) for e in self.pht_entries),
            history_bits=self.history_bits,
            bias_entries=max(16, self.bias_entries // factor),
            promote_threshold=self.promote_threshold,
            ras_depth=self.ras_depth,
            btb_entries=max(16, self.btb_entries // factor),
        )


@dataclass
class PredictorStats:
    """Lookups per table kind; the mispredicts are counted at retire,
    where a branch's outcome is resolved against its prediction."""

    cond_predictions: int = 0
    indirect_predictions: int = 0


class MultiBranchPredictor:
    """Three skewed PHTs + bias table + RAS + BTB."""

    def __init__(self,
                 config: Optional[PredictorConfig] = None) -> None:
        self.config = config if config is not None else PredictorConfig()
        cfg = self.config
        self.phts: List[PatternHistoryTable] = [
            PatternHistoryTable(entries, cfg.history_bits)
            for entries in cfg.pht_entries]
        self.history = GlobalHistory(cfg.history_bits)
        self.bias = BiasTable(cfg.bias_entries, cfg.promote_threshold)
        self.ras = ReturnAddressStack(cfg.ras_depth)
        self.btb = BranchTargetBuffer(cfg.btb_entries)
        self.stats = PredictorStats()

    @property
    def max_dynamic_branches(self) -> int:
        """How many unpromoted conditional branches one fetch group may
        carry (one per PHT)."""
        return len(self.phts)

    # ------------------------------------------------------------------

    def predict_cond(self, pc: int, position: int) -> bool:
        """Predict the *position*-th unpromoted conditional branch of
        the current fetch group (0-based)."""
        table = self.phts[min(position, len(self.phts) - 1)]
        return table.predict(pc, self.history.value)

    def update_cond(self, pc: int, position: int, taken: bool) -> bool:
        """Predict the *position*-th unpromoted conditional branch of
        the current fetch group, as :meth:`predict_cond` does, then
        train table and history with the committed outcome; returns
        the prediction.

        The replay model trains immediately at fetch with the true
        outcome (oracle update ordering); see DESIGN.md §3.
        """
        table = self.phts[min(position, len(self.phts) - 1)]
        predicted = table.update(pc, self.history.value, taken)
        self.history.push(taken)
        self.stats.cond_predictions += 1
        return predicted

    def record_outcome(self, pc: int, taken: bool) -> None:
        """Feed the bias table (promotion bookkeeping) at retire."""
        self.bias.record(pc, taken)

    # -- indirect control ------------------------------------------------

    def predict_indirect(self, pc: int,
                         is_return: bool) -> Optional[int]:
        """Predicted target for an indirect jump, or ``None``."""
        self.stats.indirect_predictions += 1
        if is_return:
            return self.ras.pop()
        return self.btb.predict(pc)

    def train_indirect(self, pc: int, target: int) -> None:
        self.btb.update(pc, target)

    def note_call(self, return_pc: int) -> None:
        """Push the fall-through of a call onto the RAS."""
        self.ras.push(return_pc)


__all__ = ["MultiBranchPredictor", "PredictorConfig", "PredictorStats"]
