"""Job fingerprinting: stability and sensitivity."""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
import sys

from repro.core.config import SimConfig
from repro.exec import fingerprint
from repro.exec.fingerprint import (
    SCHEMA_VERSION,
    canonical_json,
    code_version,
    grid_fingerprint,
    job_fingerprint,
)
from repro.fillunit.opts.base import OptimizationConfig


def test_code_version_stable_and_short():
    first = code_version()
    assert first == code_version()
    assert len(first) == 16
    int(first, 16)                      # hex


def test_canonical_json_is_order_insensitive():
    assert (canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
            == canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1}))


def test_same_job_same_fingerprint():
    config = SimConfig.paper(OptimizationConfig.all())
    assert (job_fingerprint(config, "compress", 0.5)
            == job_fingerprint(SimConfig.paper(OptimizationConfig.all()),
                               "compress", 0.5))


def test_fingerprint_sensitivity():
    base = SimConfig.paper()
    fp = job_fingerprint(base, "compress", 0.5)
    assert fp != job_fingerprint(base, "li", 0.5)
    assert fp != job_fingerprint(base, "compress", 0.6)
    assert fp != job_fingerprint(base, "compress", 0.5,
                                 max_instructions=1000)
    assert fp != job_fingerprint(dataclasses.replace(base, fill_latency=6),
                                 "compress", 0.5)
    assert fp != job_fingerprint(
        base.with_optimizations(OptimizationConfig.all()),
        "compress", 0.5)


def test_code_version_invalidates():
    config = SimConfig.paper()
    assert (job_fingerprint(config, "compress", 0.5, version="aaaa")
            != job_fingerprint(config, "compress", 0.5, version="bbbb"))


def _sources_digest() -> str:
    """``code_version``'s bytes, hashed through ``hashlib``."""
    root = Path(fingerprint.__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\x00")
        digest.update(path.read_bytes() + b"\x00")
    return digest.hexdigest()


def test_builtin_sha256_gives_hashlib_digests():
    """The built-in module addresses every job exactly as ``hashlib``
    does, so cache paths stay what they were."""
    assert code_version() == _sources_digest()[:16]
    config = SimConfig.paper(OptimizationConfig.all())
    description = {"schema": SCHEMA_VERSION, "code": "x",
                   "benchmark": "compress", "scale": 0.05,
                   "max_instructions": None, "config": config.to_dict()}
    assert (job_fingerprint(config, "compress", 0.05, version="x")
            == hashlib.sha256(canonical_json(description).encode())
            .hexdigest())
    fps = ["b" * 64, "a" * 64]
    assert (grid_fingerprint(fps)
            == hashlib.sha256(("a" * 64 + "\n" + "b" * 64).encode())
            .hexdigest())


def test_sha256_falls_back_to_hashlib(monkeypatch):
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    raw = canonical_json({"benchmark": "li", "scale": 0.5}).encode()
    digest = fingerprint._sha256(raw)
    assert type(digest) is type(hashlib.sha256())
    assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()
