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
    The instruction had completed but not yet retired (retire
    bandwidth, in-order commit backpressure, serialization drain).

The accounting is **exact**: the classes always sum to the run's total
cycle count. The classifier itself is a pipeline stage,
:class:`repro.core.stages.attribution.CycleAccountant`, which the engine
appends to its stage list when the telemetry session asks for
attribution; this module holds the taxonomy and its renderers.
"""

from __future__ import annotations

from typing import Dict, Optional

#: the taxonomy, in report order.
CYCLE_CLASSES = ("base", "fetch_starved", "tc_miss",
                 "mispredict_recovery", "bypass_delay", "issue_bound",
                 "drain")


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
    """A side-by-side attribution comparison of two runs."""
    total_a = sum(a.values()) or 1
    total_b = sum(b.values()) or 1
    width = max(len(label_a), len(label_b), 10)
    lines = [f"  {'class':20s} {label_a:>{width}s} "
             f"{label_b:>{width}s} {'delta':>10s}"]
    names = [n for n in CYCLE_CLASSES if n in a or n in b]
    names += sorted((set(a) | set(b)) - set(CYCLE_CLASSES))
    for name in names:
        va, vb = a.get(name, 0), b.get(name, 0)
        pa = 100.0 * va / total_a
        pb = 100.0 * vb / total_b
        lines.append(f"  {name:20s} "
                     f"{f'{va} ({pa:.1f}%)':>{width}s} "
                     f"{f'{vb} ({pb:.1f}%)':>{width}s} "
                     f"{vb - va:+10d}")
    lines.append(f"  {'total':20s} {total_a:>{width}d} "
                 f"{total_b:>{width}d} {total_b - total_a:+10d}")
    return "\n".join(lines)


__all__ = ["CYCLE_CLASSES", "render_attribution", "diff_attribution"]
