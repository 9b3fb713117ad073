"""The execution layer loads the worker pool and OpenSSL on first use.

Importing :mod:`repro.exec` must not load ``concurrent.futures`` (with
``multiprocessing`` and ``logging``) or ``hashlib``: figures, tools and
benchmarks import the package, but only ``jobs > 1`` starts a pool and
only a fingerprint hashes. The pytest process has loaded these modules
already, so the check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys

import repro

POOL_MODULES = ("concurrent.futures", "multiprocessing", "logging")
HASH_MODULES = ("hashlib", "_hashlib")

SCRIPT = """
import json, sys
start = set(sys.modules)

def loaded(names):
    return sorted(name for name in names
                  if name in sys.modules and name not in start)

from repro import workloads
from repro.core.engine import Engine
from repro.exec import ExecutionService, paper_grid
from repro.machine.executor import Executor

service = ExecutionService(scale=0.05, jobs=1)
job = paper_grid(["compress"])[0]
trace = Executor(workloads.build("compress", 0.05)).run()
Engine(job.config).run(trace, "compress", job.label)
names = %r
report = {"ran_op": loaded(names)}
service.run(job)
report["ran_job"] = loaded(names)
print(json.dumps(report))
"""


def test_exec_loads_pool_and_hashlib_on_first_use():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    names = POOL_MODULES + HASH_MODULES
    out = subprocess.run([sys.executable, "-c", SCRIPT % (names,)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["ran_op"] == []
    assert "hashlib" in report["ran_job"]
    assert not set(POOL_MODULES) & set(report["ran_job"])
