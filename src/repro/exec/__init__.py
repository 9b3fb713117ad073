"""The execution service: content-addressed, parallel simulation.

The paper's evaluation is an embarrassingly parallel grid — the
optimization sets crossed with fill latencies crossed with the fifteen
workloads — and every figure/table regeneration used to re-simulate
identical configurations from scratch. This package turns one
simulation into an addressable *job*:

* :mod:`repro.exec.fingerprint` — a canonical, stable hash of the
  full :class:`~repro.core.config.SimConfig`, the workload identity
  (benchmark name + scale) and the code version;
* :mod:`repro.exec.cache` — a content-addressed on-disk result store:
  a hit replays the archived :class:`~repro.core.results.SimResult`
  (telemetry snapshot included) without simulating;
* :mod:`repro.exec.pool` — a multiprocess worker pool with
  retry-on-worker-crash;
* :mod:`repro.exec.grid` — the one grid-expansion helper; its
  ``paper_grid`` is the 150 jobs behind every table and figure that
  ``python -m repro figures`` prints;
* :mod:`repro.exec.service` — the facade tying fingerprint -> cache
  -> pool together; it tallies how jobs resolved and the host seconds
  they took.
"""

from repro.exec.cache import ResultCache
from repro.exec.fingerprint import code_version, job_fingerprint
from repro.exec.grid import (
    JobSpec,
    expand,
    opt_variant,
    paper_grid,
    variant_label,
)
from repro.exec.service import ExecutionService

__all__ = [
    "ExecutionService",
    "ResultCache",
    "JobSpec",
    "code_version",
    "job_fingerprint",
    "expand",
    "opt_variant",
    "paper_grid",
    "variant_label",
]
