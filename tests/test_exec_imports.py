"""The execution layer loads the worker pool on first use and never
loads OpenSSL.

Importing :mod:`repro.exec` must not load ``concurrent.futures`` (with
``multiprocessing`` and ``logging``): figures, tools and benchmarks
import the package, but only ``jobs > 1`` starts a pool. Fingerprints
hash with CPython's built-in SHA-256 module, so ``hashlib`` and the
OpenSSL binding ``_hashlib`` load on no path: not on import, not when
a job is fingerprinted, simulated and its envelope written, and not
when another service reads that envelope back. The pytest process has
loaded these modules already, so the check runs in a fresh interpreter.
"""

from __future__ import annotations

from tests.helpers import run_fresh

POOL_MODULES = ("concurrent.futures", "multiprocessing", "logging")
HASH_MODULES = ("hashlib", "_hashlib")

SCRIPT = """
import json, sys, tempfile
start = set(sys.modules)

def loaded(names):
    return sorted(name for name in names
                  if name in sys.modules and name not in start)

from repro import workloads
from repro.core.engine import Engine
from repro.exec import ExecutionService, code_version, paper_grid
from repro.machine.executor import Executor

names = %r
cache_dir = tempfile.mkdtemp()
service = ExecutionService(scale=0.05, jobs=1, cache_dir=cache_dir)
job = paper_grid(["compress"])[0]
trace = Executor(workloads.build("compress", 0.05)).run()
Engine(job.config).run(trace, "compress", job.label)
report = {"ran_op": loaded(names)}
result = service.run(job)
report["ran_job"] = loaded(names)
reread = ExecutionService(scale=0.05, jobs=1, cache_dir=cache_dir)
report["reread"] = (reread.run(job) == result
                    and reread.stats["disk"] == 1)
code_version()
report["read_back"] = loaded(names)
print(json.dumps(report))
"""


def test_exec_loads_no_pool_or_openssl():
    report = run_fresh(SCRIPT % (POOL_MODULES + HASH_MODULES,))
    assert report["ran_op"] == []
    assert report["ran_job"] == []
    assert report["reread"] is True
    assert report["read_back"] == []
