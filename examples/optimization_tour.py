#!/usr/bin/env python3
"""A guided tour of the four fill-unit optimizations.

Assembles a small kernel containing every idiom the paper targets,
builds the trace segment the fill unit would construct, and shows the
segment before and after each optimization pass — the annotated
listings make the transformations visible instruction by instruction.

The fill unit is the paper machine's own: ``FillUnit(config, bias)``
takes its line limits, cluster geometry and optimization set from the
machine's ``SimConfig`` and builds its trace cache from
``config.trace_cache``, so the segments below are the ones a run of
that machine would install.

Run:  python examples/optimization_tour.py
"""

from repro.asm import assemble
from repro.branch.bias import BiasTable
from repro.core.config import SimConfig
from repro.fillunit.collector import FillCollector
from repro.fillunit.opts.base import OptimizationConfig
from repro.fillunit.unit import FillUnit
from repro.machine import Executor

KERNEL = """
# One trace segment's worth of the paper's target idioms:
    .data
record: .word 3, 7, 11, 15      # a little struct
table:  .word 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24
    .text
main:
    la   $s0, record
    la   $s2, table
    addi $t0, $s0, 4       # field offset (reassociation head)
    lw   $t1, 0($t0)       # loads 7: the branch below falls through
    move $t2, $t1          # register move on the value path
    beq  $t2, $zero, skip  # control-flow boundary (not taken)
    addi $t3, $t0, 4       # cross-block dependent offset (reassoc)
    lw   $t4, 0($t3)
    sll  $t5, $t4, 2       # short shift ...
    add  $t6, $t5, $s1     # ... feeding an add (scaled-add pair)
    lwx  $t7, $t5, $s2     # ... and an indexed load (scaled load)
skip:
    add  $v0, $t6, $t7
    halt
"""


def build_with(opts, label):
    program = assemble(KERNEL)
    trace = Executor(program).run()
    bias = BiasTable(64)
    unit = FillUnit(SimConfig.paper(opts), bias)
    collector = FillCollector(bias)
    segments = []
    for record in trace:
        for candidate in collector.add(record):
            segments.append(unit.build_segment(candidate))
    for tail in collector.flush():
        segments.append(unit.build_segment(tail))
    print(f"--- {label} " + "-" * max(1, 60 - len(label)))
    for segment in segments:
        print(segment.listing())
    print()


def main() -> None:
    print(__doc__)
    build_with(OptimizationConfig.none(), "baseline (no optimizations)")
    build_with(OptimizationConfig.only("moves"),
               "register move marking (paper 4.2)")
    build_with(OptimizationConfig.only("reassoc"),
               "reassociation (paper 4.3)")
    build_with(OptimizationConfig.only("scaled_adds"),
               "scaled adds (paper 4.4)")
    build_with(OptimizationConfig.only("placement"),
               "instruction placement (paper 4.5)")
    build_with(OptimizationConfig.all(), "all four combined")


if __name__ == "__main__":
    main()
