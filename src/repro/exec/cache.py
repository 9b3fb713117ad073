"""Content-addressed on-disk result cache.

Layout: ``<root>/<fp[:2]>/<fp>.json`` — one JSON document per job
fingerprint, holding the serialized :class:`~repro.core.results.
SimResult` (the :mod:`repro.core.export` schema, telemetry snapshot
included) plus a small provenance header. Writes are atomic
(tmp-file + ``os.replace``) so concurrent worker processes racing on
the same fingerprint can only ever leave a complete entry; corrupt or
schema-incompatible entries read as misses and are quietly discarded.
The envelope is the run record; ``tools/compare_runs.py`` diffs two
directories of them (:meth:`ResultCache.envelopes`, which yields each
result as stored, so an older schema still reads) by provenance.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import tempfile
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.export import result_from_dict, result_to_dict
from repro.core.results import SimResult

#: bump when the on-disk envelope changes shape.
ENVELOPE_VERSION = 1


class ResultCache:
    """Fingerprint-addressed store of finished simulation results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def _path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))

    # ------------------------------------------------------------------

    @staticmethod
    def _read(path: Path) -> Tuple[Dict[str, object], dict]:
        """The entry's provenance and its raw ``result`` dict."""
        with open(path) as handle:
            envelope = json.load(handle)
        if envelope.get("envelope") != ENVELOPE_VERSION:
            raise ValueError("envelope version mismatch")
        result = envelope["result"]
        if not isinstance(result, dict):
            raise ValueError("result is not an object")
        return envelope.get("provenance", {}), result

    def get(self, fingerprint: str) -> Optional[SimResult]:
        """The cached result, or ``None`` on a miss (including corrupt
        or schema-incompatible entries, which are removed)."""
        path = self._path(fingerprint)
        try:
            return result_from_dict(self._read(path)[1])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, AttributeError):
            # A torn or outdated entry, or valid JSON of the wrong shape
            # (``.get`` on a list or null): treat as a miss and clear it
            # so the slot can be refilled cleanly.
            path.unlink(missing_ok=True)
            return None

    def envelopes(self) -> Iterator[Tuple[Dict[str, object], dict]]:
        """``(provenance, result dict)`` of every entry, in path order,
        the result as stored, whatever its schema; an unreadable entry
        raises ``ValueError`` naming it (and stays)."""
        for path in sorted(self.root.glob("??/*.json")):
            try:
                entry = self._read(path)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(
                    f"{path}: unreadable envelope ({exc})") from exc
            yield entry

    def put(self, fingerprint: str, result: SimResult,
            provenance: Optional[Dict[str, object]] = None) -> Path:
        """Store *result* under *fingerprint* (atomic; last writer
        wins). Every writer of a fingerprint writes the same result by
        construction of the fingerprint; only the provenance (its host
        seconds, say) differs between writers."""
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "envelope": ENVELOPE_VERSION,
            "fingerprint": fingerprint,
            "provenance": dict(provenance or {}),
            "result": result_to_dict(result),
        }
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False)
        try:
            with handle:
                handle.write(json.dumps(envelope, indent=1))
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise
        return path


__all__ = ["ResultCache", "ENVELOPE_VERSION"]
