"""Segment-level timing replay: the memoized macro-simulation layer.

A trace-cache hit re-executes the same finalized segment over and over
(the paper's premise: hot loops dominate reuse), and on most of those
visits the *entire timing context* — every machine resource the visit
can observe — is identical to an earlier visit. The replay controller
detects that with a hashable context key, and replays the earlier
visit's recorded timing delta instead of driving the six pipeline
stages instruction by instruction. Any context mismatch falls back to
the slow path, which re-records; results are bit-for-bit identical
with the memo on or off.

Soundness rests on three pillars (docs/architecture.md, "Segment-level
timing replay", carries the full argument):

1. **Normalization.** Every cycle number in keys and deltas is stored
   relative to the group's fetch cycle *B*. A group fetched at *B*
   claims no resource before ``B + 1`` (rename) / ``B + 2``
   (issue/retire/checkpoints) / ``B + 3`` (memory), so state strictly
   below those horizons is *unobservable* and is excluded from the
   digests (the ``_DIGEST_SLACK`` cut in :mod:`repro.core.clusters`,
   the idle tokens in :mod:`repro.core.rename`, the stale merges in
   :mod:`repro.core.memsched`). Two states with equal digests are
   indistinguishable to the visit.
2. **Completeness.** The key covers everything the memoized region
   reads: the segment identity (``memo_token`` — rebuilt segments get
   fresh tokens, so stale entries can never alias), the per-entry
   outcome codes (mispredict/promotion/phantom pattern and memory
   addresses, which the live fetch stage just recomputed), the
   dataflow scoreboard, the retire-window history slice, rename/
   retire/checkpoint/FU/RS occupancy, the memory scheduler, and the
   exact L1D/L2 sets the visit's accesses map to. Whatever the region
   *writes* is captured in the delta: appended retire cycles, register
   scoreboard updates, component post-states, cache set contents,
   plain attribute counters and telemetry counters.
3. **Live splits.** Work whose effects outlive any single visit in a
   context-dependent way stays on the slow path even during a replay:
   the fetch stage's group assembly (trace-cache LRU, predictor
   training, I-cache fill), the bias table's ``record_outcome`` (fed
   the *current* branch outcomes — direction is not pinned by the key,
   only the mispredict bit is), and the fill unit (segment collection
   consumes the current record stream). Their telemetry
   (``fillunit.*``) is excluded from the recorded counter deltas so
   replay never double-counts.

The shadow checker (``SimConfig.replay_shadow_every``) re-simulates
every Nth would-be replay through the slow path and asserts the fresh
capture equals the memoized record bit-for-bit — the replay layer's
analogue of the PR-2 segment verifier, wired into the harness
cross-checks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.clusters import (
    CheckpointStore,
    FunctionalUnits,
    ReservationStations,
)
from repro.core.rename import RenameUnit, RetireUnit
from repro.core.stages.base import FetchGroup, MachineState, MetricBlock
from repro.errors import ReplayMismatchError

if TYPE_CHECKING:
    from repro.core.engine import Engine

_SCOPES = {
    "hit": "engine.replay.hit",
    "miss": "engine.replay.miss",
    "invalidate": "engine.replay.invalidate",
    "bypass": "engine.replay.bypass",
    "shadow_checked": "engine.replay.shadow.checked",
    "shadow_mismatch": "engine.replay.shadow.mismatch",
}

#: above this many live store-forwarding entries the controller stops
#: memoizing: the scheduler's size-triggered prune (absolute-cycle
#: floor) could otherwise fire inside a captured or replayed visit.
_FORWARD_GUARD = 4000

#: groups between timing-state prunes (see ``on_group``). Digest
#: content is prune-invariant, so the cadence only has to keep the
#: components' size-triggered compactions (which *would* perturb
#: digests) unreachable: a group adds at most issue-width FU
#: reservations and a handful of forwarding entries, so 16 groups of
#: growth stay orders of magnitude below the 4096/2048 triggers.
_PRUNE_EVERY = 16

#: telemetry scopes whose counters move on the live split during a
#: replayed visit; recording their deltas too would double-count.
_LIVE_SCOPE_PREFIXES = ("fillunit.", "engine.replay.")

#: segment hit-rate distributions are bimodal (compress: hash-table
#: probe segments at ~0% beside loop segments at 80%+), so replay-cold
#: detection is two-tier: a segment that has *never* replayed freezes
#: after ``_COLD_MISSES_FAST`` misses, while one with any hits only
#: freezes on the slow lifetime test (``_COLD_MISSES`` misses at a hit
#: rate at or below ``1 / _COLD_RATIO``). Cold segments are not keyed,
#: so their slow path runs with near-zero replay overhead. The
#: hit/miss tallies halve whenever they total ``_DECAY_AT`` so the
#: lifetime test follows phase changes eventually. A cold segment is
#: still keyed periodically as a *probe pair* — two consecutive keyed
#: visits, because a hit needs a matching *recent* capture and
#: bypassed visits capture nothing: the pair's first visit re-seeds
#: the memo, the second can hit against it. A probe hit resets the
#: segment to warm, so warm-up misses never freeze a segment out for
#: good. Each fully-missed pair doubles the probe interval from
#: ``_PROBE_MIN`` up to ``_PROBE_MAX``, so persistently cold segments
#: converge to paying two key builds per ``_PROBE_MAX`` visits.
_COLD_MISSES_FAST = 8
_COLD_MISSES = 24
_COLD_RATIO = 8
_DECAY_AT = 48
_PROBE_MIN = 4
_PROBE_MAX = 16

#: a replay transaction (key build + record apply) costs roughly a
#: constant plus a small per-entry term, while the stage loop it skips
#: costs per-entry — so below a few consumed entries a *hit* is break-
#: even at best, and the misses keying those visits costs are pure
#: loss. Visits consuming fewer entries than this are never keyed
#: (counted as bypasses). compress's hot hash-table loop retires
#: 4-entry groups and sat at ~1.0x with them keyed; its profitable
#: replays are the 16-entry segment bodies.
_MIN_REPLAY_CONSUMED = 6


def _is_cold(stats: List[int]) -> bool:
    hits, misses = stats[0], stats[1]
    if hits == 0:
        return misses >= _COLD_MISSES_FAST
    return misses >= _COLD_MISSES and hits * _COLD_RATIO <= misses


class CaptureBackoff:
    """Run-level memo profitability guard.

    Keying and capturing visits that never replay is pure overhead:
    compress's BENCH_8 profile ran *below* break-even (0.9465x at a
    9.8% hit rate) because almost every eligible group paid the key
    build and capture without ever hitting. The controller reports
    every eligible-visit outcome here; when a full assessment window
    closes with a hit rate under the configured break-even threshold,
    capture switches off for the remainder of the run. Timing is
    untouched either way — replay never changes cycles — so backing
    off only sheds bookkeeping cost.
    """

    __slots__ = ("threshold", "window", "hits", "visits", "off")

    def __init__(self, threshold: float, window: int) -> None:
        self.threshold = threshold
        self.window = window
        self.hits = 0
        self.visits = 0
        self.off = False

    def reset(self) -> None:
        """New run: re-open the capture window."""
        self.hits = 0
        self.visits = 0
        self.off = False

    def note(self, hit: bool) -> None:
        """Record one eligible-visit outcome (hit / miss / bypass)."""
        if self.off or not self.window:
            return
        self.visits += 1
        if hit:
            self.hits += 1
        if self.visits >= self.window:
            if self.hits < self.threshold * self.visits:
                self.off = True
            self.hits = 0
            self.visits = 0


@dataclass
class VisitRecord:
    """Everything one slow-path segment visit did to timing state,
    normalized to the visit's fetch cycle.

    Component references (telemetry counters, cache objects) are the
    engine's own live objects; dataclass equality — which the shadow
    checker relies on — therefore compares them by identity, which is
    exactly right: a record is only ever replayed on the engine that
    captured it.
    """

    #: appended retire cycles, in order, relative to the fetch cycle
    retire: Tuple[int, ...]
    #: scoreboard updates: ``(reg, encoded-entry)`` per changed register
    regs: Tuple[Tuple[int, Tuple[Any, ...]], ...]
    rename_post: Tuple[Any, ...]
    retire_post: Tuple[Any, ...]
    checkpoints_post: Tuple[Tuple[int, ...], int]
    fus_post: Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]
    rs_post: Tuple[Tuple[int, ...], ...]
    memsched_delta: Tuple[Any, ...]
    #: per touched cache set: post-visit ``set_digest`` snapshot
    #: (recency-ordered resident tags + replacement-policy metadata)
    cache_posts: Tuple[Tuple[Any, int, Tuple[Tuple[int, ...],
                                             tuple]], ...]
    #: ``(cell index, delta)`` into the controller's attribute cells
    attr_deltas: Tuple[Tuple[int, int], ...]
    #: ``(live Counter handle, delta)`` per moved telemetry counter
    counter_deltas: Tuple[Tuple[Any, int], ...]
    #: ``(fetch_ready - base, pending_recovery, pending_serialize)``
    fetch_post: Tuple[int, int, int]


class TimingMemo:
    """FIFO-bounded store of context key -> :class:`VisitRecord`."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Dict[Tuple[Any, ...], VisitRecord] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[Any, ...]) -> Optional[VisitRecord]:
        return self._entries.get(key)

    def store(self, key: Tuple[Any, ...], record: VisitRecord) -> int:
        """Insert, evicting the oldest entry at capacity; returns the
        number of evictions (0 or 1)."""
        evicted = 0
        if key not in self._entries and \
                len(self._entries) >= self.capacity:
            del self._entries[next(iter(self._entries))]
            evicted = 1
        self._entries[key] = record
        return evicted

    def invalidate(self, key: Tuple[Any, ...]) -> None:
        self._entries.pop(key, None)

    def approx_bytes(self) -> int:
        """Rough memory footprint of keys plus records (container and
        value sizes; foreign object references count pointer-size).
        Estimated from an evenly spaced sample of at most 16 entries —
        sizing every record recursively costs more than the replay
        saves on large memos."""
        n = len(self._entries)
        if n == 0:
            return 0
        step = max(n // 16, 1)
        sampled = 0
        total = 0
        for i, (key, record) in enumerate(self._entries.items()):
            if i % step:
                continue
            sampled += 1
            total += _approx_size(key) + 64
            for name in VisitRecord.__dataclass_fields__:
                total += _approx_size(getattr(record, name))
        return (total // sampled) * n


def _approx_size(obj: Any) -> int:
    if isinstance(obj, tuple):
        return sys.getsizeof(obj) + sum(_approx_size(o) for o in obj)
    if isinstance(obj, (int, str)):
        return sys.getsizeof(obj)
    return 8


def _segment_static(entries: Sequence[Any]
                    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The visit-invariant part of a key: every register the entries'
    instructions read or write (r0 excluded, sorted) and a per-position
    memory-op kind (0 none, 1 load, 2 store)."""
    regs = set()
    kinds: List[int] = []
    for entry in entries:
        decoded = entry.decoded
        regs.update(decoded.sources)
        regs.update(reg for reg, _is_data in decoded.operands)
        if decoded.dest is not None:
            regs.add(decoded.dest)
        kinds.append(1 if decoded.is_load else 2 if decoded.is_store
                     else 0)
    return tuple(sorted(regs)), tuple(kinds)


class _Pending:
    """A slow-path visit armed for capture (memo miss or shadow)."""

    __slots__ = ("key", "base", "start_seq", "start_pc", "regs_used",
                 "reg_pre", "counters", "counter_pre", "attr_pre",
                 "cache_sets", "store_words", "expect")

    def __init__(self, key: Tuple[Any, ...], base: int, start_seq: int,
                 start_pc: int, regs_used: Tuple[int, ...],
                 reg_pre: List[Tuple[int, Optional[int]]],
                 counters: List[Any], counter_pre: List[int],
                 attr_pre: Tuple[int, ...],
                 cache_sets: List[Tuple[str, Any, int]],
                 store_words: Tuple[int, ...],
                 expect: Optional[VisitRecord]) -> None:
        self.key = key
        self.base = base
        self.start_seq = start_seq
        self.start_pc = start_pc
        self.regs_used = regs_used
        self.reg_pre = reg_pre
        self.counters = counters
        self.counter_pre = counter_pre
        self.attr_pre = attr_pre
        self.cache_sets = cache_sets
        self.store_words = store_words
        self.expect = expect


class ReplayController:
    """Decides, per fetch group, between replaying a memoized timing
    delta and running (and possibly recording) the slow path."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        config = engine.config
        self._memo = TimingMemo(config.memo_capacity)
        self._shadow_every = config.replay_shadow_every
        self._shadow_tick = 0
        self._window = config.window_size
        self._penalty = config.cross_cluster_penalty
        self._pending: Optional[_Pending] = None
        self._prune_tick = 0
        #: per-(memo_token, entry count) register set and memory-op
        #: kinds — pure functions of the segment's instruction prefix,
        #: which entry positions map onto 1:1 (phantoms included), so
        #: one derivation serves every visit. Bounded by a wholesale
        #: clear; tokens are never reused, so staleness is impossible.
        self._static: Dict[Tuple[int, int],
                           Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        #: ``(base, rename, retire, checkpoints, fus, rs)`` — the five
        #: component digests as of the end of the previous group.
        #: Nothing touches these components between one group's close
        #: and the next group's key build (the live fetch stage only
        #: drives the trace cache, predictor and I-cache), so the next
        #: key re-normalizes these via ``shift_digest`` instead of
        #: re-walking component state. Cleared whenever a group runs
        #: without leaving a captured or replayed post-state.
        self._ctx_cache: Optional[Tuple[Any, ...]] = None
        #: per-segment replay confidence: ``memo_token -> [hits,
        #: misses]``; see :data:`_COLD_MISSES`.
        self._tok_stats: Dict[int, List[int]] = {}
        #: run-level break-even guard over all eligible visits.
        self._backoff = CaptureBackoff(config.memo_breakeven,
                                       config.memo_breakeven_window)
        self._m = MetricBlock(engine.registry, _SCOPES)
        self._g_entries = engine.registry.gauge(
            "engine.replay.memo.entries")
        self._g_bytes = engine.registry.gauge(
            "engine.replay.memo.approx_bytes")
        #: plain (non-registry) attribute counters the memoized region
        #: mutates; deltas are recorded by cell index.
        ms = engine.memsched
        ru = engine.rename_unit
        hier = engine.hierarchy
        self._attr_cells: Tuple[Tuple[Any, str], ...] = (
            (ms, "loads"), (ms, "stores"),
            (ms, "forwarded_loads"), (ms, "blocked_loads"),
            (engine.bypass, "crossings"),
            (ru, "window_stalls"), (ru, "block_limit_stalls"),
            (ru, "width_stalls"),
            (engine.checkpoints, "stalls"),
            (hier.l1d.stats, "accesses"), (hier.l1d.stats, "hits"),
            (hier.l1d.stats, "evictions"),
            (hier.l2.stats, "accesses"), (hier.l2.stats, "hits"),
            (hier.l2.stats, "evictions"),
        )

    @property
    def memo(self) -> TimingMemo:
        return self._memo

    # ==================================================================
    # Eligibility
    # ==================================================================

    def run_eligible(self, state: MachineState) -> bool:
        """Whether this run may use the memo at all: every opt-in
        observer that sees the memoized region instruction by
        instruction (events, spans, cycle attribution, timing hooks,
        wrong-path modeling, appended observer stages) forces the slow
        path for the whole run."""
        engine = self._engine
        # A new run restarts the cycle clock; digests carried over from
        # a previous run on this engine would be stale.
        self._ctx_cache = None
        self._backoff.reset()
        if engine.spans is not None or engine.events.enabled:
            return False
        if state.accountant is not None or state.timing_hook is not None:
            return False
        if state.want_payload or state.wrong_path is not None:
            return False
        # Observer stages appended to engine.stages see per-instruction
        # state and must keep seeing it; host-profiler proxies wrap the
        # canonical stages (in ``_stage``) without observing timing, so
        # unwrap before comparing.
        live = [getattr(stage, "_stage", stage)
                for stage in engine.stages]
        return live == list(engine._core_stages)

    # ==================================================================
    # Per-group driver
    # ==================================================================

    def on_group(self, state: MachineState) -> bool:
        """Called after the (live) fetch stage assembled the group.
        Returns True when the group was replayed from the memo — the
        engine then skips the per-instruction stage loop entirely."""
        engine = self._engine
        group = state.group
        assert group is not None
        base = group.fetch_cycle
        # Maintenance: drop timing state no future group can observe.
        # Sound on every path (see prune_below/prune_stale docs), and
        # digests are prune-invariant (both cut below base + slack), so
        # this amortizes over _PRUNE_EVERY groups — often enough that
        # the components' own absolute-cycle size triggers (4096-entry
        # FU compaction, 2048-entry forwarding prune) stay permanently
        # out of reach.
        self._prune_tick += 1
        if self._prune_tick >= _PRUNE_EVERY:
            self._prune_tick = 0
            engine.fus.prune_below(base + 2)
            engine.memsched.prune_stale(base)
        if self._backoff.off:
            # The run replayed below break-even for a full window:
            # skip keying and capture entirely from here on.
            self._m.bypass.add()
            self._ctx_cache = None
            return False
        if group.segment is None or \
                group.consumed < _MIN_REPLAY_CONSUMED or \
                engine.memsched.forward_entries() > _FORWARD_GUARD:
            self._m.bypass.add()
            self._backoff.note(False)
            self._ctx_cache = None
            return False
        stats = self._tok_stats.get(group.segment.memo_token)
        if stats is None:
            # [hits, misses, cold visits since last probe, probe gap]
            stats = [0, 0, 0, _PROBE_MIN]
            self._tok_stats[group.segment.memo_token] = stats
        cold = _is_cold(stats)
        if cold:
            stats[2] += 1
            if stats[2] < stats[3]:
                self._m.bypass.add()
                self._backoff.note(False)
                self._ctx_cache = None
                return False
            if stats[2] > stats[3]:
                stats[2] = 0    # second keyed visit of the probe pair
        key, regs_used, cache_sets, store_words = \
            self._build_key(state, group)
        record = self._memo.get(key)
        if record is not None:
            self._m.hit.add()
            self._backoff.note(True)
            if cold:
                stats[:] = [1, 0, 0, _PROBE_MIN]    # probe hit: rewarm
            else:
                stats[0] += 1
                if stats[0] + stats[1] >= _DECAY_AT:
                    stats[0] -= stats[0] // 2
                    stats[1] //= 2
            if self._shadow_due():
                self._m.shadow_checked.add()
                self._arm(state, group, key, regs_used, cache_sets,
                          store_words, expect=record)
                return False
            self._apply(state, group, record)
            return True
        self._m.miss.add()
        self._backoff.note(False)
        stats[1] += 1
        if cold:
            if stats[2] == 0:   # pair completed without a hit
                stats[3] = min(stats[3] * 2, _PROBE_MAX)
        elif stats[0] + stats[1] >= _DECAY_AT:
            stats[0] -= stats[0] // 2
            stats[1] //= 2
        self._arm(state, group, key, regs_used, cache_sets,
                  store_words, expect=None)
        return False

    def after_group(self, state: MachineState) -> None:
        """Called after a slow-path group completed (post end_group):
        capture the visit into the memo, or shadow-compare it."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        record = self._capture(state, pending)
        if record is None:
            # Uncapturable scoreboard delta; do not memoize. The
            # component post-state is unknown to the digest cache too.
            self._ctx_cache = None
            return
        self._ctx_cache = (pending.base, record.rename_post,
                           record.retire_post, record.checkpoints_post,
                           record.fus_post, record.rs_post)
        if pending.expect is not None:
            if record != pending.expect:
                self._memo.invalidate(pending.key)
                self._m.shadow_mismatch.add()
                raise ReplayMismatchError(
                    f"shadow re-simulation of segment "
                    f"{pending.start_pc:#x} at cycle {pending.base} "
                    f"diverged from its memoized timing delta")
            return
        self._m.invalidate.add(self._memo.store(pending.key, record))

    def finish_run(self) -> None:
        """Publish the memo footprint gauges."""
        self._g_entries.set(len(self._memo))
        self._g_bytes.set(self._memo.approx_bytes())

    def _shadow_due(self) -> bool:
        if not self._shadow_every:
            return False
        self._shadow_tick += 1
        if self._shadow_tick >= self._shadow_every:
            self._shadow_tick = 0
            return True
        return False

    # ==================================================================
    # Context key
    # ==================================================================

    def _build_key(self, state: MachineState, group: FetchGroup
                   ) -> Tuple[Tuple[Any, ...], Tuple[int, ...],
                              List[Tuple[str, Any, int]],
                              Tuple[int, ...]]:
        """The full timing context of this visit, normalized to the
        fetch cycle. Returns ``(key, registers used, touched cache
        sets, store words)`` — the extras are reused by capture."""
        engine = self._engine
        base = group.fetch_cycle
        segment = group.segment
        assert segment is not None
        entries = group.entries
        token = segment.memo_token
        static = self._static.get((token, len(entries)))
        if static is None:
            static = _segment_static(entries)
            if len(self._static) >= 32768:
                self._static.clear()
            self._static[(token, len(entries))] = static
        regs_used, mem_kinds = static
        codes: List[Any] = []
        load_words = set()
        store_words = set()
        mem_addrs: List[int] = []
        for i, entry in enumerate(entries):
            if entry.phantom:
                codes.append("p")
                continue
            code = ((2 if entry.promoted else 0)
                    | (1 if entry.mispredicted else 0))
            kind = mem_kinds[i]
            if kind:
                addr = entry.record.mem_addr
                codes.append((code, addr))
                mem_addrs.append(addr)
                if kind == 1:
                    load_words.add(addr & ~3)
                else:
                    store_words.add(addr & ~3)
            else:
                codes.append(code)
        cache_sets = self._touched_sets(mem_addrs)
        ctx = self._ctx_cache
        if ctx is not None and ctx[0] <= base:
            delta = base - ctx[0]
            if delta == 0:
                rename_d, retire_d, ckpt_d, fus_d, rs_d = ctx[1:]
            else:
                rename_d = RenameUnit.shift_digest(ctx[1], delta)
                retire_d = RetireUnit.shift_digest(ctx[2], delta)
                ckpt_d = CheckpointStore.shift_digest(ctx[3], delta)
                fus_d = FunctionalUnits.shift_digest(ctx[4], delta)
                rs_d = ReservationStations.shift_digest(ctx[5], delta)
        else:
            rename_d = engine.rename_unit.context_digest(base)
            retire_d = engine.retire_unit.context_digest(base)
            ckpt_d = engine.checkpoints.context_digest(base)
            fus_d = engine.fus.context_digest(base)
            rs_d = engine.rs.context_digest(base)
        key = (
            segment.memo_token, len(entries), group.consumed,
            tuple(codes),
            self._reg_digest(state.reg_ready, base, regs_used),
            self._window_digest(state, base, group.consumed),
            rename_d, retire_d, ckpt_d, fus_d, rs_d,
            engine.memsched.context_digest(base, sorted(load_words)),
            tuple((label, idx, cache.set_digest(idx))
                  for label, cache, idx in cache_sets),
        )
        return key, regs_used, cache_sets, tuple(sorted(store_words))

    def _touched_sets(self, mem_addrs: Sequence[int]
                      ) -> List[Tuple[str, Any, int]]:
        """The distinct L1D and L2 sets this visit's memory accesses
        map to (loads and stores both probe L1D and, on a miss, L2)."""
        hier = self._engine.hierarchy
        out: List[Tuple[str, Any, int]] = []
        seen = set()
        for addr in mem_addrs:
            for label, cache in (("d", hier.l1d), ("2", hier.l2)):
                idx = cache.set_index(addr)
                if (label, idx) not in seen:
                    seen.add((label, idx))
                    out.append((label, cache, idx))
        out.sort(key=lambda item: (item[0], item[2]))
        return out

    def _reg_digest(self, reg_ready: List[Tuple[int, Optional[int]]],
                    base: int, regs_used: Tuple[int, ...]
                    ) -> Tuple[Any, ...]:
        """The dataflow scoreboard relative to *base*, restricted to
        the registers this visit reads or writes — no other register
        can influence its timing, and the written-but-unchanged case
        needs the pre-visit value of written registers pinned too.

        Live registers (``ready > base``) carry exact normalized cycle
        and producing cluster. Never-written registers are one shared
        token. Stale registers (written, but ready at or before
        *base*) can only influence timing through operand-wakeup
        comparisons: among themselves the comparison structure is
        shift-invariant, so they are encoded relative to the newest
        stale value; against live operands (whose effective readiness
        is at least ``base + 1``) a stale operand competes only when
        its bypass-adjusted readiness reaches that boundary, which the
        final clamped ``newest-stale - base`` component pins exactly
        in the reachable band and collapses below it."""
        stale_max: Optional[int] = None
        for reg in regs_used:
            ready, cluster = reg_ready[reg]
            if ready <= base and not (ready == 0 and cluster is None):
                if stale_max is None or ready > stale_max:
                    stale_max = ready
        out: List[Any] = []
        for reg in regs_used:
            ready, cluster = reg_ready[reg]
            if ready > base:
                out.append((ready - base, cluster))
            elif ready == 0 and cluster is None:
                out.append(0)
            else:
                assert stale_max is not None
                out.append((ready - stale_max, cluster))
        near = (None if stale_max is None
                else max(stale_max - base, -self._penalty))
        return (tuple(out), near)

    def _window_digest(self, state: MachineState, base: int,
                       consumed: int) -> Tuple[int, Tuple[int, ...]]:
        """The retire-history slice the in-flight window constraint
        reads: ``retire_cycles[seq - window]`` for this group's
        sequence numbers. Values at or before *base* cannot constrain
        a rename at ``base + 1`` and clamp to one token; the anchor
        distinguishes runs young enough that some sequence numbers
        have no window predecessor at all."""
        cycles = state.retire_cycles
        s0 = len(cycles)
        lo = s0 - self._window
        vals = tuple(max(cycles[j] - base, 0)
                     for j in range(max(lo, 0),
                                    min(lo + consumed + 1, s0)))
        return (s0 if s0 < self._window else -1, vals)

    # ==================================================================
    # Capture (slow path, armed)
    # ==================================================================

    def _arm(self, state: MachineState, group: FetchGroup,
             key: Tuple[Any, ...], regs_used: Tuple[int, ...],
             cache_sets: List[Tuple[str, Any, int]],
             store_words: Tuple[int, ...],
             expect: Optional[VisitRecord]) -> None:
        counters = self._engine.registry.counters()
        segment = group.segment
        assert segment is not None
        self._pending = _Pending(
            key=key, base=group.fetch_cycle,
            start_seq=len(state.retire_cycles),
            start_pc=segment.start_pc,
            regs_used=regs_used,
            reg_pre=list(state.reg_ready),
            counters=counters,
            counter_pre=[c.value for c in counters],
            attr_pre=tuple(getattr(obj, name)
                           for obj, name in self._attr_cells),
            cache_sets=cache_sets,
            store_words=store_words,
            expect=expect)

    def _capture(self, state: MachineState,
                 pending: _Pending) -> Optional[VisitRecord]:
        engine = self._engine
        base = pending.base
        regs = self._capture_regs(state, pending)
        if regs is None:
            return None
        registry_counters = engine.registry.counters()
        counter_deltas = []
        for i, counter in enumerate(registry_counters):
            pre = (pending.counter_pre[i]
                   if i < len(pending.counter_pre) else 0)
            delta = counter.value - pre
            if delta and not counter.scope.startswith(
                    _LIVE_SCOPE_PREFIXES):
                counter_deltas.append((counter, delta))
        attr_deltas = []
        for i, (obj, name) in enumerate(self._attr_cells):
            delta = getattr(obj, name) - pending.attr_pre[i]
            if delta:
                attr_deltas.append((i, delta))
        return VisitRecord(
            retire=tuple(c - base for c in
                         state.retire_cycles[pending.start_seq:]),
            regs=regs,
            rename_post=engine.rename_unit.context_digest(base),
            retire_post=engine.retire_unit.context_digest(base),
            checkpoints_post=engine.checkpoints.context_digest(base),
            fus_post=engine.fus.context_digest(base),
            rs_post=engine.rs.context_digest(base),
            memsched_delta=engine.memsched.capture_delta(
                base, pending.store_words),
            cache_posts=tuple((cache, idx, cache.set_digest(idx))
                              for _label, cache, idx
                              in pending.cache_sets),
            attr_deltas=tuple(attr_deltas),
            counter_deltas=tuple(counter_deltas),
            fetch_post=(state.fetch_ready - base,
                        state.pending_recovery,
                        state.pending_serialize))

    def _capture_regs(self, state: MachineState, pending: _Pending
                      ) -> Optional[Tuple[Tuple[int, Tuple[Any, ...]],
                                          ...]]:
        """Encode every scoreboard change: live values relative to the
        base, never-written resets absolutely, and stale values as a
        reference to the pre-visit register holding the same pair.
        Stale pairs only ever arise from rename-time move copies, so
        the chain always bottoms out at a pre-visit register the visit
        read — which is in the key's register set, the only registers
        whose pre-visit pairwise equalities the key pins (if no source
        there matches, the visit is simply not memoized)."""
        base = pending.base
        pre = pending.reg_pre
        out: List[Tuple[int, Tuple[Any, ...]]] = []
        for reg in range(1, 32):
            pair = state.reg_ready[reg]
            if pair == pre[reg]:
                continue
            ready, cluster = pair
            if ready > base:
                out.append((reg, ("a", ready - base, cluster)))
            elif ready == 0 and cluster is None:
                out.append((reg, ("z",)))
            else:
                for src in pending.regs_used:
                    if pre[src] == pair:
                        out.append((reg, ("c", src)))
                        break
                else:
                    return None
        return tuple(out)

    # ==================================================================
    # Replay (memo hit)
    # ==================================================================

    def _apply(self, state: MachineState, group: FetchGroup,
               record: VisitRecord) -> None:
        """Install a recorded visit at this group's fetch cycle, then
        run the live split (bias training, fill unit) over the current
        records. The engine skips the stage loop and ``end_group``;
        ``fetch_post`` carries their sequencing effects."""
        engine = self._engine
        base = group.fetch_cycle
        retire_cycles = state.retire_cycles
        for cycle in record.retire:
            retire_cycles.append(cycle + base)
        pre = list(state.reg_ready)
        for reg, encoded in record.regs:
            tag = encoded[0]
            if tag == "a":
                state.reg_ready[reg] = (encoded[1] + base, encoded[2])
            elif tag == "z":
                state.reg_ready[reg] = (0, None)
            else:
                state.reg_ready[reg] = pre[encoded[1]]
        engine.rename_unit.restore(base, record.rename_post)
        engine.retire_unit.restore(base, record.retire_post)
        engine.checkpoints.restore(base, record.checkpoints_post)
        engine.fus.restore(base, record.fus_post)
        engine.rs.restore(base, record.rs_post)
        engine.memsched.apply_delta(base, record.memsched_delta)
        for cache, idx, digest in record.cache_posts:
            cache.restore_set(idx, digest)
        for i, delta in record.attr_deltas:
            obj, name = self._attr_cells[i]
            setattr(obj, name, getattr(obj, name) + delta)
        for counter, delta in record.counter_deltas:
            counter.value += delta
        # Live split: the bias table learns from the *current* branch
        # outcomes (the key pins only the mispredict pattern, not the
        # directions), and the fill unit consumes the current records
        # at the recorded retire cycles — exactly what the slow path's
        # retire and fill stages would have fed them, in order.
        predictor = engine.predictor
        fill_unit = engine.fill_unit
        k = 0
        for entry in group.entries:
            if entry.phantom:
                continue
            rec = entry.record
            if rec.instr.decoded.is_cond_branch:
                predictor.record_outcome(rec.pc, rec.taken)
            if fill_unit is not None:
                fill_unit.retire(rec, record.retire[k] + base)
            k += 1
        ready, recovery, serialize = record.fetch_post
        state.fetch_ready = ready + base
        state.pending_recovery = recovery
        state.pending_serialize = serialize
        self._ctx_cache = (base, record.rename_post, record.retire_post,
                           record.checkpoints_post, record.fus_post,
                           record.rs_post)


__all__ = ["ReplayController", "TimingMemo", "VisitRecord",
           "ReplayMismatchError"]
