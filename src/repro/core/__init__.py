"""The timing model: a 16-wide trace-cache microprocessor with a
clustered execution backend, replayed over the committed instruction
stream (see DESIGN.md §3 for the replay methodology)."""

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.results import SimResult

__all__ = ["Engine", "SimConfig", "SimResult"]
