"""Top-level simulation entry points.

:func:`simulate` takes an assembled program (or a pre-computed
committed trace) and a :class:`SimConfig`, runs the functional machine
to obtain the committed stream, then replays it through a fresh
:class:`Engine`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.results import SimResult
from repro.machine.executor import DEFAULT_MAX_INSTRUCTIONS, Executor
from repro.machine.tracing import CommittedTrace
from repro.program.image import Program


class Simulator:
    """Reusable simulator facade.

    Separate runs always use fresh microarchitectural state (caches,
    predictors, trace cache); the committed trace of a program can be
    reused across configurations, which is how the experiment harness
    amortizes functional execution over many timing runs.
    """

    def __init__(self, config: SimConfig, telemetry=None) -> None:
        self.config = config
        #: optional :class:`repro.telemetry.Telemetry` session shared by
        #: every model this simulator creates (events, attribution, and
        #: a registry that accumulates across runs).
        self.telemetry = telemetry

    def trace_program(self, program: Program,
                      max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                      ) -> CommittedTrace:
        """Run *program* functionally and return its committed trace."""
        return Executor(program).run(max_instructions)

    def run(self, program_or_trace, benchmark: str = "bench",
            label: str = "run",
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> SimResult:
        """Simulate and return results.

        Accepts either a :class:`Program` (functionally executed first)
        or an existing :class:`CommittedTrace`.
        """
        program = None
        if isinstance(program_or_trace, Program):
            program = program_or_trace
            trace = self.trace_program(program, max_instructions)
            if benchmark == "bench":
                benchmark = program.name
        else:
            trace = program_or_trace
        model = Engine(self.config, telemetry=self.telemetry)
        return model.run(trace, benchmark=benchmark, label=label,
                         program=program)


def simulate(program_or_trace, config: Optional[SimConfig] = None,
             benchmark: str = "bench", label: str = "run",
             telemetry=None) -> SimResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    if config is None:
        config = SimConfig.paper()
    return Simulator(config, telemetry=telemetry).run(
        program_or_trace, benchmark, label)


__all__ = ["Simulator", "simulate"]
