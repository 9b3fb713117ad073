"""Top-down cycle accounting.

Classifies every cycle of a replay into a seven-class taxonomy so a
comparison of configurations can report *why* one won, not just its
IPC delta:

``base``
    A cycle in which at least one instruction retired — the productive
    baseline every machine pays.
``fetch_starved``
    Nothing retired because the front end had not yet delivered the
    next instruction (fetch bandwidth: group sequencing, taken-branch
    breaks, line crossings).
``tc_miss``
    Front-end dead time specifically due to instruction-fetch latency
    after a trace cache miss (the supporting I-cache/L2/memory round
    trip). On a machine with the trace cache disabled these cycles
    are reported as ``fetch_starved``.
``mispredict_recovery``
    Fetch was stalled waiting for a mispredicted branch to resolve and
    redirect.
``bypass_delay``
    The next retiring instruction had finished all work except the
    extra cycle(s) its last-arriving operand spent crossing clusters —
    the penalty the placement optimization attacks.
``issue_bound``
    The next retiring instruction was fetched but still waiting to
    execute or executing (dataflow chains, RS/FU contention, rename
    and window stalls, memory latency).
``drain``
    Fetch was held back by a serialization drain. (Retire bandwidth
    and in-order commit never leave a completed instruction waiting
    across a gap: an instruction whose retirement skips cycles
    retires the cycle after it completes.)

The accounting is **exact**: the classes always sum to the run's total
cycle count. Every run has it: the retire and fetch stages append to
two sparse logs on the machine state as the run goes, and the retire
stage hands them to :func:`attribute_cycles` once it finishes. This
module holds the taxonomy, that classifier and the renderers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

#: the taxonomy, in report order.
CYCLE_CLASSES = ("base", "fetch_starved", "tc_miss",
                 "mispredict_recovery", "bypass_delay", "issue_bound",
                 "drain")


#: a fetch-log entry that never falls due
_NEVER = (float("inf"), 0, 0, 0)


def attribute_cycles(retire_log: List[Tuple[int, int, int, int, bool]],
                     fetch_log: List[Tuple[int, int, int, int]],
                     cycles: int, bypass_penalty: int,
                     extra_is_tc_miss: bool) -> Dict[str, int]:
    """Classify the *cycles* of one run from its two sparse logs.

    *retire_log* holds one ``(seq, fetch, complete, last, penalized)``
    per retirement that skips cycles: the instruction's sequence
    number, its group's fetch cycle, its completion cycle (it retires
    one cycle later), the previous retirement cycle and whether its
    last-arriving source paid the cross-cluster bypass penalty. Every
    other retirement shares a retire cycle or takes the next one.
    *fetch_log* holds one ``(seq, recovery, fetch_extra, serialize)``
    per fetch group with a front-end delay, keyed by the group's first
    committed sequence number: the cycles its fetch was pushed back by
    a mispredict redirect, by instruction-fetch latency and by a
    serialization drain.

    The two logs are merged in sequence order (a group's delays come
    before its own retirements). A delay is carried as a debt until a
    gap has cycles to charge it to: a gap's front-end window
    ``(last, fetch]`` pays fetch latency first, then redirect, then
    drain, and the rest is ``fetch_starved``; its back-end window
    ``(max(last, fetch), complete]`` pays the bypass penalty first
    (when *penalized*), then redirect, fetch latency and drain, and
    the rest is ``issue_bound``. A gap has no commit-backpressure
    window: it retires the cycle after it completes. Fetch latency is
    ``tc_miss`` when *extra_is_tc_miss* (the machine has a trace
    cache), else ``fetch_starved``; ``base`` is the rest of *cycles*,
    the cycles in which something retired.

    Raises:
        ReproError: when a class comes out negative or ``base`` is
            smaller than the number of gaps (each gap ends in a retire
            cycle of its own): an accounting fault, never
            data-dependent.
    """
    recovery_debt = extra_debt = serialize_debt = 0
    starved = extra = recovery = bypass = issue = drain = 0
    feed = iter(fetch_log)
    due, group_recovery, group_extra, group_serialize = next(feed, _NEVER)
    for seq, fetch, complete, last, penalized in retire_log:
        while due <= seq:
            recovery_debt += group_recovery
            extra_debt += group_extra
            serialize_debt += group_serialize
            due, group_recovery, group_extra, group_serialize = \
                next(feed, _NEVER)
        if fetch > last:    # rare: the front end was late
            frontend = min(fetch, complete) - last
            take = min(frontend, extra_debt)
            extra += take
            extra_debt -= take
            frontend -= take
            take = min(frontend, recovery_debt)
            recovery += take
            recovery_debt -= take
            frontend -= take
            take = min(frontend, serialize_debt)
            drain += take
            serialize_debt -= take
            starved += frontend - take
            if fetch >= complete:
                continue
            last = fetch
        backend = complete - last
        if penalized:
            if backend <= bypass_penalty:
                bypass += backend
                continue
            bypass += bypass_penalty
            backend -= bypass_penalty
        if recovery_debt or extra_debt or serialize_debt:
            take = min(backend, recovery_debt)
            recovery += take
            recovery_debt -= take
            backend -= take
            take = min(backend, extra_debt)
            extra += take
            extra_debt -= take
            backend -= take
            take = min(backend, serialize_debt)
            drain += take
            serialize_debt -= take
            backend -= take
        issue += backend
    if not extra_is_tc_miss:
        starved += extra
        extra = 0
    classes = {"fetch_starved": starved, "tc_miss": extra,
               "mispredict_recovery": recovery, "bypass_delay": bypass,
               "issue_bound": issue, "drain": drain}
    base = cycles - sum(classes.values())
    if base < len(retire_log) or min(classes.values()) < 0:
        raise ReproError(
            f"cycle attribution lost cycles: {classes} leave {base} "
            f"base cycles of {cycles} for {len(retire_log)} gaps")
    return {"base": base, **classes}


def render_attribution(attribution: Dict[str, int],
                       cycles: Optional[int] = None,
                       title: str = "cycle attribution") -> str:
    """A readable table of one attribution (classes in report order)."""
    if cycles is None:
        cycles = sum(attribution.values())
    lines = [f"{title} ({cycles} cycles)"]
    for name in CYCLE_CLASSES:
        count = attribution.get(name, 0)
        pct = 100.0 * count / cycles if cycles else 0.0
        bar = "#" * int(round(pct / 2))
        lines.append(f"  {name:20s} {count:10d}  {pct:5.1f}%  {bar}")
    extras = sorted(set(attribution) - set(CYCLE_CLASSES))
    for name in extras:
        count = attribution[name]
        pct = 100.0 * count / cycles if cycles else 0.0
        lines.append(f"  {name:20s} {count:10d}  {pct:5.1f}%")
    return "\n".join(lines)


def diff_attribution(label_a: str, a: Dict[str, int], label_b: str,
                     b: Dict[str, int]) -> str:
    """A side-by-side attribution comparison of two runs; the
    ``total`` row's delta is the cycle delta."""
    total_a = sum(a.values())
    total_b = sum(b.values())
    names = [n for n in CYCLE_CLASSES if n in a or n in b]
    names += sorted((set(a) | set(b)) - set(CYCLE_CLASSES))
    rows = []
    for name in names:
        va, vb = a.get(name, 0), b.get(name, 0)
        pa = 100.0 * va / (total_a or 1)
        pb = 100.0 * vb / (total_b or 1)
        rows.append((name, f"{va} ({pa:.1f}%)", f"{vb} ({pb:.1f}%)",
                     vb - va))
    rows.append(("total", str(total_a), str(total_b), total_b - total_a))
    width = max([len(label_a), len(label_b), 10]
                + [len(row[1]) for row in rows]
                + [len(row[2]) for row in rows])
    lines = [f"  {'class':20s} {label_a:>{width}s} "
             f"{label_b:>{width}s} {'delta':>10s}"]
    for name, cell_a, cell_b, delta in rows:
        lines.append(f"  {name:20s} {cell_a:>{width}s} {cell_b:>{width}s} "
                     f"{delta:+10d}")
    return "\n".join(lines)


__all__ = ["CYCLE_CLASSES", "attribute_cycles", "render_attribution",
           "diff_attribution"]
