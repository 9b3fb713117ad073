"""Result serialization: SimResult / AnalysisReport -> JSON and back.

Lets runs be archived and diffed across code versions
(``tools/compare_runs.py``), feeds external plotting, and carries the
static analyzer's reports into the CI baseline
(``tools/analysis_baseline.json``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Optional

from repro.core.results import OptCoverage, SimResult

SCHEMA_VERSION = 1
ANALYSIS_SCHEMA_VERSION = 3


def result_to_dict(result: SimResult) -> dict:
    """A JSON-safe dict of one run's results (schema-versioned)."""
    payload = asdict(result)
    payload["schema"] = SCHEMA_VERSION
    payload["derived"] = {
        "ipc": result.ipc,
        "tc_hit_rate": result.tc_hit_rate,
        "tc_instr_fraction": result.tc_instr_fraction,
        "bypass_delayed_fraction": result.bypass_delayed_fraction,
        "mispredict_rate": result.mispredict_rate,
    }
    return payload


def result_from_dict(payload: dict) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`result_to_dict` output.

    Raises:
        ValueError: on an unknown schema version.
    """
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unknown result schema {payload.get('schema')!r}")
    data = {k: v for k, v in payload.items()
            if k not in ("schema", "derived")}
    data["coverage"] = OptCoverage(**data["coverage"])
    return SimResult(**data)


def dump_results(results: list, path: str) -> None:
    """Write a list of results to a JSON file."""
    with open(path, "w") as handle:
        json.dump([result_to_dict(r) for r in results], handle, indent=1)


def load_results(path: str) -> list:
    """Read results written by :func:`dump_results`."""
    with open(path) as handle:
        return [result_from_dict(p) for p in json.load(handle)]


def diff_results(old: SimResult, new: SimResult,
                 threshold_pct: float = 1.0) -> Optional[str]:
    """Human-readable IPC drift between two runs of the same experiment,
    or ``None`` when within *threshold_pct*.

    Raises:
        ValueError: when the runs are not the same experiment.
    """
    if (old.benchmark, old.config_label) != (new.benchmark,
                                             new.config_label):
        raise ValueError("results describe different experiments")
    if old.ipc == 0:
        return None
    drift = 100.0 * (new.ipc - old.ipc) / old.ipc
    if abs(drift) < threshold_pct:
        return None
    return (f"{old.benchmark}[{old.config_label}]: IPC "
            f"{old.ipc:.3f} -> {new.ipc:.3f} ({drift:+.1f}%)")


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


__all__ = ["result_to_dict", "result_from_dict", "dump_results",
           "load_results", "diff_results", "SCHEMA_VERSION",
           "analysis_to_dict", "analysis_from_dict",
           "ANALYSIS_SCHEMA_VERSION"]
