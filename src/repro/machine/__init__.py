"""Functional machine: architectural state, byte memory, executor.

The functional machine serves two roles:

1. It generates the *committed instruction stream* (the "correct path")
   that the timing simulator replays — the oracle the trace-driven
   model is built on.
2. It is the semantic referee for the fill-unit optimizations: the
   property-based tests execute original and optimized instruction
   sequences on two machines and require identical architectural state.
"""

from repro.machine.executor import Executor
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.machine.tracing import CommittedInstr, CommittedTrace

__all__ = [
    "ArchState",
    "Memory",
    "Executor",
    "CommittedInstr",
    "CommittedTrace",
]
