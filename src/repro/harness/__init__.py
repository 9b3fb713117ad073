"""Experiment harness: regenerates every table and figure of the
paper's evaluation section.

``python -m repro figures`` runs the paper grid and prints them all:
Table 1, Figures 3-8 and Table 2. Typical use from Python::

    from repro import workloads
    from repro.exec import ExecutionService
    from repro.harness import figures, tables

    service = ExecutionService(scale=1.0)
    fig3 = figures.figure3(service, workloads.names())
    print(fig3.render())

Each ``figureN``/``tableN`` function returns a structured result with a
``render()`` method producing the ASCII equivalent of the paper's
chart, with paper-reported reference numbers alongside for comparison.
Each takes the execution service that resolves its jobs (memo, disk
cache, worker pool) and the benchmarks to report.
"""

from repro.harness import figures, svgchart, tables
from repro.harness.report import render_bar_chart, render_table

__all__ = [
    "figures",
    "svgchart",
    "tables",
    "render_bar_chart",
    "render_table",
]
