"""Result serialization: SimResult / AnalysisReport -> JSON and back.

:func:`result_to_dict` is the result half of the exec-cache envelope
(:mod:`repro.exec.cache`) and of the worker pool's return value;
:func:`diff_results` diffs two runs of one experiment, which is how
``tools/compare_runs.py`` compares envelope sets across code versions.
The analysis half carries the static analyzer's reports into the CI
baseline (``tools/analysis_baseline.json``).
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any, Optional

from repro.core.results import SimResult

#: 4: each fact of a run is stored once: the counts in ``telemetry``,
#: where no scope restates another (version 3 also stored six such
#: scopes and a ``derived`` block of ratios over the counts, version 2
#: the fill unit's pass counts summed over passes, version 1 the typed
#: counters and ``coverage`` beside their scopes)
SCHEMA_VERSION = 4
ANALYSIS_SCHEMA_VERSION = 3


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


def _flatten(name: str, value: Any, flat: dict) -> None:
    """Add *value* to *flat* under *name*, a dict one leaf at a time
    (``name.key``, recursively)."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{name}.{key}", item, flat)
    else:
        flat[name] = value


def _counters(result: SimResult) -> dict:
    """Every scalar field of *result*, and every leaf of its dicts:
    ``attribution.<class>`` and ``telemetry.<scope>``
    (``telemetry.<scope>.<field>`` for a histogram)."""
    flat: dict = {}
    for name, value in asdict(result).items():
        _flatten(name, value, flat)
    return flat


def diff_results(old: SimResult, new: SimResult) -> Optional[str]:
    """Every counter that differs between two runs of the same
    experiment, one ``name: old -> new`` line each, or ``None`` when
    all are equal.

    Raises:
        ValueError: when the runs are not the same experiment.
    """
    if (old.benchmark, old.config_label) != (new.benchmark,
                                             new.config_label):
        raise ValueError("results describe different experiments")
    before, after = _counters(old), _counters(new)
    lines = [f"  {name}: {before.get(name, '-')} -> {after.get(name, '-')}"
             for name in {**before, **after}
             if before.get(name) != after.get(name)]
    if not lines:
        return None
    return "\n".join([f"{old.benchmark}[{old.config_label}]:"] + lines)


def analysis_to_dict(report) -> dict:
    """A JSON-safe dict of one :class:`~repro.analysis.static.report.
    AnalysisReport` (schema-versioned)."""
    payload = asdict(report)
    payload["schema"] = ANALYSIS_SCHEMA_VERSION
    payload["derived"] = {
        "static_bounds": report.static_bounds(),
        "lint_rule_counts": report.lint_rule_counts(),
        "lint_errors": len(report.lint_errors()),
        "lint_warnings": len(report.lint_warnings()),
    }
    return payload


def analysis_from_dict(payload: dict):
    """Rebuild an ``AnalysisReport`` from :func:`analysis_to_dict`.

    Raises:
        ValueError: on an unknown schema version or an unknown key.
    """
    from repro.analysis.static.lint import LintFinding
    from repro.analysis.static.report import AnalysisReport
    if payload.get("schema") != ANALYSIS_SCHEMA_VERSION:
        raise ValueError(
            f"unknown analysis schema {payload.get('schema')!r}")
    data = {k: v for k, v in payload.items()
            if k not in ("schema", "derived")}
    unknown = sorted(set(data) - {f.name for f in fields(AnalysisReport)})
    if unknown:
        raise ValueError(f"unknown analysis key(s) {', '.join(unknown)}")
    data["lint"] = [LintFinding(**f) for f in data.get("lint", [])]
    return AnalysisReport(**data)


__all__ = ["result_to_dict", "result_from_dict", "diff_results",
           "SCHEMA_VERSION", "analysis_to_dict", "analysis_from_dict",
           "ANALYSIS_SCHEMA_VERSION"]
