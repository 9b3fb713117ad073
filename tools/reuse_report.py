"""Loop-aware trace-reuse characterization report.

Joins the *static* view of a workload (natural-loop nesting depth per
pc, from :mod:`repro.cache.hints`) with the *dynamic* reuse of the
trace cache per start pc (fills, hits, evictions, dead evictions) and
the instruction mix of the segments built there, recorded by the
:class:`ReuseLog` observer stage.

The per-depth aggregation answers the question the TRRIP policy bets
on: do segments rooted in deeper loops actually see more reuse per
fill, and are the dead evictions (filled, never rehit) concentrated
in loop-free code?

Usage::

    PYTHONPATH=src python tools/reuse_report.py [scale]
        [--benchmarks compress,li] [--policy lru] [--top N]
        [--json out.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro import workloads
from repro.cache.hints import pc_loop_depths
from repro.cache.policy import POLICY_NAMES
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.stages import MachineState, PipelineStage
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor


class ReuseLog(PipelineStage):
    """Observer stage: trace-cache reuse and fill mix per start pc."""

    name = "reuse"

    def __init__(self) -> None:
        #: start_pc -> [fills, hits, evictions, dead evictions],
        #: aggregated across paths and generations
        self.reuse_by_pc: Dict[int, List[int]] = {}
        #: start_pc -> [instrs, cond branches, mem ops] over its fills
        self.mix_by_pc: Dict[int, List[int]] = {}
        #: (start_pc, path_key) -> lookup hits since its last fill
        self._hits: Dict[Tuple[int, tuple], int] = {}

    def _row(self, pc: int) -> List[int]:
        return self.reuse_by_pc.setdefault(pc, [0, 0, 0, 0])

    def begin_group(self, state: MachineState) -> None:
        assert state.group is not None
        segment = state.group.segment
        if segment is not None:         # a trace-cache hit
            self._row(segment.start_pc)[1] += 1
            key = (segment.start_pc, segment.path_key)
            self._hits[key] = self._hits.get(key, 0) + 1

    def line_displaced(self, key: Tuple[int, tuple], cycle: int,
                       incoming: Any, evicted: bool) -> None:
        hits = self._hits.pop(key, 0)
        if evicted:
            row = self._row(key[0])
            row[2] += 1
            if hits == 0:
                row[3] += 1

    def segment_built(self, segment: Any, cycle: int) -> None:
        self._row(segment.start_pc)[0] += 1
        self._hits[(segment.start_pc, segment.path_key)] = 0
        mix = self.mix_by_pc.setdefault(segment.start_pc, [0, 0, 0])
        mix[0] += len(segment.instrs)
        for instr in segment.instrs:
            decoded = instr.decoded
            if decoded.is_cond_branch:
                mix[1] += 1
            elif decoded.is_load or decoded.is_store:
                mix[2] += 1


def characterize(benchmark: str, scale: float,
                 policy: str) -> Dict[str, object]:
    """Run *benchmark* and join loop depths with reuse telemetry."""
    program = workloads.build(benchmark, scale=scale)
    trace = Executor(program).run()
    config = SimConfig.paper(OptimizationConfig.all())
    config = dataclasses.replace(
        config,
        trace_cache=dataclasses.replace(config.trace_cache,
                                        policy=policy),
        hierarchy=dataclasses.replace(config.hierarchy, policy=policy))
    model = Engine(config)
    log = ReuseLog()
    model.stages.append(log)
    result = model.run(trace, benchmark=benchmark, label=policy)
    depths = pc_loop_depths(program)

    by_depth: Dict[int, Dict[str, int]] = {}
    segments: List[Dict[str, object]] = []
    for pc, (fills, hits, evictions, dead) in \
            sorted(log.reuse_by_pc.items()):
        depth = depths.get(pc, 0)
        agg = by_depth.setdefault(depth, {
            "pcs": 0, "fills": 0, "hits": 0, "evictions": 0,
            "dead_evictions": 0})
        agg["pcs"] += 1
        agg["fills"] += fills
        agg["hits"] += hits
        agg["evictions"] += evictions
        agg["dead_evictions"] += dead
        instrs, branches, mems = log.mix_by_pc.get(pc, [0, 0, 0])
        segments.append({
            "pc": pc, "loop_depth": depth, "fills": fills,
            "hits": hits, "evictions": evictions,
            "dead_evictions": dead,
            "hits_per_fill": round(hits / fills, 2) if fills else 0.0,
            "mix": {"instrs": instrs, "cond_branches": branches,
                    "mem_ops": mems},
        })
    segments.sort(key=lambda s: (-s["hits"], s["pc"]))
    return {
        "benchmark": benchmark,
        "policy": policy,
        "cycles": result.cycles,
        "tc_hit_rate": round(result.tc_hits
                             / (result.tc_lookups or 1), 4),
        "by_depth": {str(d): dict(
            agg, hits_per_fill=round(agg["hits"] / agg["fills"], 2)
            if agg["fills"] else 0.0)
            for d, agg in sorted(by_depth.items())},
        "segments": segments,
    }


def render(report: Dict[str, object], top: int) -> str:
    lines = [f"== {report['benchmark']} (policy={report['policy']}, "
             f"cycles={report['cycles']}, "
             f"tc hit rate {100 * report['tc_hit_rate']:.1f}%)"]
    lines.append(f"{'depth':>6}{'pcs':>6}{'fills':>8}{'hits':>8}"
                 f"{'evict':>8}{'dead':>6}{'hits/fill':>11}")
    for depth, agg in report["by_depth"].items():
        lines.append(f"{depth:>6}{agg['pcs']:>6}{agg['fills']:>8}"
                     f"{agg['hits']:>8}{agg['evictions']:>8}"
                     f"{agg['dead_evictions']:>6}"
                     f"{agg['hits_per_fill']:>11.2f}")
    lines.append(f"top {top} segments by reuse:")
    lines.append(f"{'pc':>10}{'depth':>6}{'fills':>6}{'hits':>8}"
                 f"{'dead':>6}{'instrs':>8}{'branches':>9}{'mems':>6}")
    for seg in report["segments"][:top]:
        mix = seg["mix"]
        lines.append(f"{seg['pc']:#10x}{seg['loop_depth']:>6}"
                     f"{seg['fills']:>6}{seg['hits']:>8}"
                     f"{seg['dead_evictions']:>6}{mix['instrs']:>8}"
                     f"{mix['cond_branches']:>9}{mix['mem_ops']:>6}")
    return "\n".join(lines)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="loop-aware trace-reuse characterization")
    parser.add_argument("scale", nargs="?", type=float, default=0.5,
                        help="workload scale factor (default 0.5)")
    parser.add_argument("--benchmarks", default="compress,li",
                        help="comma-separated benchmarks "
                             "(default compress,li)")
    parser.add_argument("--policy", default="lru",
                        choices=list(POLICY_NAMES),
                        help="replacement policy to run under")
    parser.add_argument("--top", type=int, default=10,
                        help="top-N segments to list (default 10)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the full report as JSON")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> None:
    args = parse_args(argv)
    benchmarks = [b.strip() for b in args.benchmarks.split(",")
                  if b.strip()]
    reports = [characterize(bench, args.scale, args.policy)
               for bench in benchmarks]
    print("\n\n".join(render(report, args.top) for report in reports))
    if args.json_out:
        out = pathlib.Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {"scale": args.scale, "reports": reports},
            indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
