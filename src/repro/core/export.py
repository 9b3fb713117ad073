"""Result serialization: SimResult / AnalysisReport -> JSON.

:func:`result_to_dict` is the result half of the exec-cache envelope
(:mod:`repro.exec.cache`), and :func:`result_from_dict` reads it back;
:func:`diff_results` diffs two such dicts of one experiment, which is
how ``tools/compare_runs.py`` compares envelope sets across code
versions (and export schemas).
:func:`analysis_to_dict` is what ``repro analyze --json`` writes.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Optional

from repro.core.results import SimResult

#: 4: each fact of a run is stored once: the counts in ``telemetry``,
#: where no scope restates another (version 3 also stored six such
#: scopes and a ``derived`` block of ratios over the counts, version 2
#: the fill unit's pass counts summed over passes, version 1 the typed
#: counters and ``coverage`` beside their scopes)
SCHEMA_VERSION = 4
#: 4: a report's fields only (version 3 also restated its site bounds
#: and lint counts in a ``derived`` block)
ANALYSIS_SCHEMA_VERSION = 4


def result_to_dict(result: SimResult) -> dict:
    """A JSON-safe dict of one run's results (schema-versioned), each
    count once.

    Shallow: the dict fields (counts, attribution) are the result's
    own objects, not copies."""
    payload = {f.name: getattr(result, f.name) for f in fields(result)}
    payload["schema"] = SCHEMA_VERSION
    return payload


def result_from_dict(payload: dict) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`result_to_dict` output.

    Raises:
        ValueError: on an unknown schema version.
    """
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unknown result schema {payload.get('schema')!r}")
    data = {k: v for k, v in payload.items() if k != "schema"}
    return SimResult(**data)


def _flatten(payload: dict, prefix: str = "") -> dict:
    """*payload* one leaf at a time: a nested dict's leaves under
    ``key.subkey`` (recursively)."""
    flat: dict = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def diff_results(old: dict, new: dict) -> Optional[str]:
    """Every value that differs between two result dicts of the same
    experiment (:func:`result_to_dict` output, of any schema), one
    ``name: old -> new`` line each, or ``None`` when all are equal.

    A dict field is compared leaf by leaf: ``attribution.<class>``,
    ``telemetry.<scope>`` (``telemetry.<scope>.<field>`` for a
    histogram). A key only one side has reads ``-`` on the other, so
    two schemas still pair: ``schema: 3 -> 4`` and one line per
    dropped key.

    Raises:
        ValueError: when the dicts do not describe the same experiment.
    """
    experiment = ("benchmark", "config_label")
    if [old.get(k) for k in experiment] != [new.get(k) for k in experiment]:
        raise ValueError("results describe different experiments")
    before, after = _flatten(old), _flatten(new)
    lines = [f"  {name}: {before.get(name, '-')} -> {after.get(name, '-')}"
             for name in {**before, **after}
             if before.get(name, "-") != after.get(name, "-")]
    if not lines:
        return None
    return "\n".join([f"{old['benchmark']}[{old['config_label']}]:"]
                     + lines)


def analysis_to_dict(report) -> dict:
    """A JSON-safe dict of one :class:`~repro.analysis.static.report.
    AnalysisReport` (schema-versioned): its fields, each fact once."""
    payload = asdict(report)
    payload["schema"] = ANALYSIS_SCHEMA_VERSION
    return payload


__all__ = ["result_to_dict", "result_from_dict", "diff_results",
           "SCHEMA_VERSION", "analysis_to_dict", "ANALYSIS_SCHEMA_VERSION"]
