"""The predication extension beyond the paper's four measured
optimizations: dynamic predication of hard-to-predict short forward
branches (the transformation class §1 names as an example of what the
fill unit can do).

Measured on top of the paper's four optimizations.

The paper does not measure predication, so there is no reference
number; the bench documents what the conservative always-safe pass
buys on this suite and asserts it never regresses.
"""

import pytest

from repro.analysis.stats import arithmetic_mean
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.exec.grid import opt_job
from repro.fillunit.opts.base import OptimizationConfig

SUBSET = ["compress", "m88ksim", "li", "gnuplot", "python"]


@pytest.mark.figure
def test_extension_passes(benchmark, service, emit):
    extended = OptimizationConfig.extended()

    def study():
        rows = {}
        for bench in SUBSET:
            base = service.run(opt_job(bench, OptimizationConfig.none()))
            four = service.run(opt_job(bench, OptimizationConfig.all()))
            five = Engine(SimConfig.paper(extended)).run(
                service.trace(bench), benchmark=bench, label="extended")
            rows[bench] = (four.improvement_over(base),
                           five.improvement_over(base),
                           five.pass_totals.get("predicated_branches", 0))
        return rows
    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    emit("Extensions: the paper's four passes vs + predication\n"
         + "\n".join(
             f"  {name:10s} four {a:+6.1f}%   extended {b:+6.1f}%   "
             f"(pred x{e} over all builds)"
             for name, (a, b, e) in rows.items()))
    # Safety claim: adding the conservative extension never loses
    # meaningfully (it converts mispredict-prone control into data
    # dependences).
    for name, (four, ext, _) in rows.items():
        assert ext >= four - 1.0, name
    # Predication should pay off visibly on the hammock-rich hash codes.
    mean_delta = arithmetic_mean(b - a for a, b, _ in rows.values())
    assert 0.0 <= mean_delta < 15.0
