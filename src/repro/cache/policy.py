"""Pluggable replacement policies for the set-associative structures.

Both :class:`~repro.cache.setassoc.SetAssocCache` and the trace cache
keep their ways in insertion-ordered dicts (move-to-end on hit), which
is the recency spine every policy here can lean on.  A policy owns two
things on top of that spine:

* **victim selection** — which resident key leaves when a set is full;
* **metadata** — any per-set state the selection consults (RRPV
  counters, reuse history).

Three policies are provided:

* :class:`TrueLRU` — the seed behaviour, bit for bit: the victim is
  the insertion-ordered dict's oldest entry and there is no metadata.
* :class:`SRRIPPolicy` — static re-reference interval prediction
  (Jaleel et al.): 2-bit RRPVs, insert "long", promote to "immediate"
  on hit, evict the first "distant" entry (aging until one exists).
* :class:`TRRIPPolicy` — temperature-based RRIP in the spirit of "A
  TRRIP Down Memory Lane": the *insertion* RRPV comes from a
  temperature prediction.  Dynamic reuse history (how many hits the
  key's previous generation saw before eviction — the ``tc.reuse`` /
  ``tc.evict`` feedback loop) takes precedence; static hints joining
  natural-loop membership with instruction mix (see
  :mod:`repro.cache.hints`) cover keys never seen before; unknown
  keys insert "long".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Dict, Hashable, Mapping, Tuple

from repro.errors import ConfigError

#: A resident key: a line tag (``int``) for :class:`SetAssocCache`,
#: ``(start_pc, path_key)`` for the trace cache.
Key = Hashable

#: 2-bit re-reference prediction values (SRRIP-HP configuration).
RRPV_MAX = 3        # "distant future" — next victim
RRPV_LONG = 2       # "long" insertion — scan resistant
RRPV_IMMEDIATE = 0  # "near-immediate" — just reused

#: Temperature classes for TRRIP-style insertion prediction.
TEMP_COLD = 0
TEMP_WARM = 1
TEMP_HOT = 2

#: Per-set bound on the TRRIP eviction-history table (FIFO).
HISTORY_PER_SET = 64


class ReplacementPolicy:
    """Victim selection + per-set metadata for one container.

    The container calls the hooks at the obvious points (``on_insert``
    after installing a key, ``on_hit`` on a reuse, ``victim`` to pick
    the key to drop, ``on_evict`` after dropping it). A container calls
    ``on_hit`` and ``on_insert`` only if the policy's class overrides
    them (see :meth:`overrides`): they run on every hit and fill, and a
    policy without metadata (:class:`TrueLRU`) keeps the base no-ops.
    """

    name = "abstract"

    def overrides(self, hook: str) -> bool:
        """Whether this policy's class overrides the *hook* method."""
        return (getattr(type(self), hook)
                is not getattr(ReplacementPolicy, hook))

    def on_insert(self, index: int, key: Key) -> None:
        """A new generation of *key* was installed in set *index*."""

    def on_hit(self, index: int, key: Key) -> None:
        """*key* was reused in set *index*."""

    def victim(self, index: int, entries: Mapping[Key, object]) -> Key:
        """Choose the key to evict from the non-empty set *index*."""
        raise NotImplementedError

    def on_evict(self, index: int, key: Key) -> None:
        """*key* left set *index* (a capacity eviction)."""



class TrueLRU(ReplacementPolicy):
    """The seed policy: evict the least recently used way.

    Recency lives entirely in the container's insertion-ordered dict,
    so this policy is stateless.
    """

    name = "lru"

    def __init__(self, num_sets: int) -> None:
        self.num_sets = num_sets

    def victim(self, index: int, entries: Mapping[Key, object]) -> Key:
        return next(iter(entries))


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (2-bit RRPV per way).

    Insertions predict a "long" re-reference interval
    (:data:`RRPV_LONG`), hits promote to "near-immediate", and the
    victim is the first resident key (in recency order, oldest first)
    whose RRPV has reached "distant" — aging every way until one has.
    """

    name = "srrip"

    def __init__(self, num_sets: int) -> None:
        self.num_sets = num_sets
        #: per-set RRPV: key -> 0..RRPV_MAX; every resident key of the
        #: owning container has an entry. A set's dict is created the
        #: first time the set is touched (so are TRRIP's below).
        self._meta: DefaultDict[int, Dict[Key, int]] = defaultdict(dict)

    def insertion_rrpv(self, index: int, key: Key) -> int:
        return RRPV_LONG

    def on_insert(self, index: int, key: Key) -> None:
        self._meta[index][key] = self.insertion_rrpv(index, key)

    def on_hit(self, index: int, key: Key) -> None:
        self._meta[index][key] = RRPV_IMMEDIATE

    def victim(self, index: int, entries: Mapping[Key, object]) -> Key:
        meta = self._meta[index]
        while True:
            for key in entries:
                if meta.get(key, RRPV_MAX) >= RRPV_MAX:
                    return key
            for key in entries:
                meta[key] = min(meta.get(key, RRPV_MAX) + 1, RRPV_MAX)

    def on_evict(self, index: int, key: Key) -> None:
        self._meta[index].pop(key, None)


class TRRIPPolicy(SRRIPPolicy):
    """Temperature-directed RRIP for reuse-skewed reference streams.

    The RRPV mechanics are :class:`SRRIPPolicy`'s (hit promotes to
    "near-immediate", victim is the first "distant" way with aging),
    but the *insertion* RRPV is predicted per key:

    ===========  ==========================  =================
    temperature  meaning                     insertion RRPV
    ===========  ==========================  =================
    hot          reused >= 2x last life      0 (immediate)
    warm         reused once / loop body     RRPV_LONG
    cold         dead on arrival last life   RRPV_MAX
    ===========  ==========================  =================

    Dynamic evidence wins: a bounded per-set history of
    hits-before-eviction from each key's previous generation.  Keys
    with no history fall back to static temperature hints (pc ->
    temperature, from natural-loop membership and instruction mix —
    installed by the engine via :meth:`set_static_hints`), and finally
    to "warm".
    """

    name = "trrip"

    def __init__(self, num_sets: int) -> None:
        super().__init__(num_sets)
        #: per-set hits seen by each resident key's current generation.
        self._reuse: DefaultDict[int, Dict[Key, int]] = defaultdict(dict)
        #: per-set hits-before-eviction of each key's *previous*
        #: generation; FIFO-bounded to HISTORY_PER_SET entries (the
        #: dict's insertion order decides which entry falls off next).
        self._history: DefaultDict[int, Dict[Key, int]] = defaultdict(
            dict)
        #: pc -> TEMP_* from static analysis (installed once per
        #: program before the run).
        self._hints: Dict[int, int] = {}

    # -- temperature prediction ----------------------------------------

    def set_static_hints(self, hints: Mapping[int, int]) -> None:
        """Install pc -> temperature hints (see repro.cache.hints)."""
        self._hints = dict(hints)

    def temperature(self, index: int, key: Key) -> int:
        """Predicted temperature for inserting *key* into *index*."""
        past = self._history[index].get(key)
        if past is not None:
            if past >= 2:
                return TEMP_HOT
            if past == 1:
                return TEMP_WARM
            return TEMP_COLD
        if isinstance(key, tuple):
            hint = self._hints.get(key[0])
            if hint is not None:
                return hint
        return TEMP_WARM

    def insertion_rrpv(self, index: int, key: Key) -> int:
        temp = self.temperature(index, key)
        if temp == TEMP_HOT:
            return RRPV_IMMEDIATE
        if temp == TEMP_COLD:
            return RRPV_MAX
        return RRPV_LONG

    # -- container hooks -----------------------------------------------

    def on_insert(self, index: int, key: Key) -> None:
        super().on_insert(index, key)
        self._reuse[index][key] = 0

    def on_hit(self, index: int, key: Key) -> None:
        super().on_hit(index, key)
        reuse = self._reuse[index]
        # Saturate at the "hot" threshold: the temperature classes
        # only distinguish 0 / 1 / >= 2 hits.
        count = reuse.get(key, 0)
        if count < 2:
            reuse[key] = count + 1

    def on_evict(self, index: int, key: Key) -> None:
        super().on_evict(index, key)
        history = self._history[index]
        history.pop(key, None)
        history[key] = self._reuse[index].pop(key, 0)
        if len(history) > HISTORY_PER_SET:
            history.pop(next(iter(history)))


_POLICIES: Dict[str, Callable[[int], ReplacementPolicy]] = {
    TrueLRU.name: TrueLRU,
    SRRIPPolicy.name: SRRIPPolicy,
    TRRIPPolicy.name: TRRIPPolicy,
}

#: Valid values for the ``policy`` config knobs, registration order.
POLICY_NAMES: Tuple[str, ...] = tuple(_POLICIES)


def make_policy(name: str, num_sets: int) -> ReplacementPolicy:
    """Instantiate the replacement policy registered as *name*."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown replacement policy {name!r}; "
            f"expected one of {', '.join(POLICY_NAMES)}") from None
    return factory(num_sets)


__all__ = [
    "HISTORY_PER_SET", "Key", "POLICY_NAMES", "RRPV_IMMEDIATE",
    "RRPV_LONG", "RRPV_MAX", "ReplacementPolicy", "SRRIPPolicy",
    "TEMP_COLD", "TEMP_HOT", "TEMP_WARM", "TRRIPPolicy", "TrueLRU",
    "make_policy",
]
