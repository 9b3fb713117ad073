"""Canonical job fingerprinting.

A job is addressed by the SHA-256 of its canonical JSON description:
the full :class:`~repro.core.config.SimConfig` (via ``to_dict``), the
workload identity (benchmark name and scale), and the code version. Two processes — today or next week — that would simulate
the same machine on the same workload under the same code produce the
same fingerprint, which is what makes the on-disk result cache safe to
share between runs, branches and worker processes.

Cache invalidation (see ``docs/architecture.md``): the code version is
a content hash over every ``repro`` source file, so *any* source
change — timing model, workload builder, optimization pass — retires
every previously cached result. That is deliberately conservative:
stale timing data silently feeding a figure is far worse than a cold
cache.

Digests come from CPython's built-in SHA-256 module (``_sha2`` on
3.12+, ``_sha256`` before), imported on first use, so neither importing
:mod:`repro.exec` nor fingerprinting a job loads ``hashlib``, whose
import maps all of OpenSSL's libcrypto to compute the same digest.
``hashlib`` is the fallback for an interpreter built without the
module.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys
from typing import Any, Iterable, Optional

from repro.core.config import SimConfig

#: bump manually on semantic changes that source hashing cannot see
#: (e.g. a result-schema change in an external dependency).
SCHEMA_VERSION = 1

_code_version: Optional[str] = None


def _sha256(data: bytes = b"") -> Any:
    """A SHA-256 object from the interpreter's built-in module, or from
    ``hashlib`` where the interpreter has none."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256 as builtin
        else:
            from _sha256 import sha256 as builtin
    except ImportError:
        import hashlib
        return hashlib.sha256(data)
    return builtin(data)


def code_version() -> str:
    """Content hash of the ``repro`` package sources (cached).

    Hashes file-relative paths and contents, in sorted order, so the
    value is independent of checkout location and filesystem mtimes.
    """
    global _code_version
    if _code_version is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = _sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _code_version = digest.hexdigest()[:16]
    return _code_version


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def job_fingerprint(config: SimConfig, benchmark: str, scale: float,
                    version: Optional[str] = None) -> str:
    """The content address of one simulation job.

    *version* defaults to :func:`code_version`; tests pass an explicit
    value to exercise invalidation without rewriting source files.
    """
    description = {
        "schema": SCHEMA_VERSION,
        "code": version if version is not None else code_version(),
        "benchmark": benchmark,
        "scale": scale,
        "config": config.to_dict(),
    }
    raw = canonical_json(description).encode()
    return _sha256(raw).hexdigest()


def grid_fingerprint(fingerprints: Iterable[str]) -> str:
    """The identity of a grid: the SHA-256 of its jobs' fingerprints,
    sorted and one per line, so it names the same set of simulations
    whatever order the jobs were listed or run in."""
    return _sha256("\n".join(sorted(fingerprints)).encode()).hexdigest()


__all__ = ["SCHEMA_VERSION", "code_version", "canonical_json",
           "grid_fingerprint", "job_fingerprint"]
