"""Render host-time profiles written by ``repro run --hostprof``.

Usage:
    python -m repro run compress --hostprof compress.prof.json
    python tools/hostprof_report.py compress.prof.json [more.json ...]

With several profiles the per-stage shares are printed side by side:
where does the simulator's own wall time go, and how does that change
across configurations?
"""

import json
import sys

from repro.telemetry.hostprof import HOSTPROF_SCHEMA_VERSION, HostProfiler


def load_profile(path: str) -> HostProfiler:
    """Rehydrate a serialized profile into a :class:`HostProfiler`."""
    with open(path) as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != HOSTPROF_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported hostprof schema {schema!r}"
                         f" (expected {HOSTPROF_SCHEMA_VERSION})")
    profiler = HostProfiler()
    for scope, entry in payload.get("scopes", {}).items():
        profiler.add(scope, float(entry["seconds"]),
                     calls=int(entry["calls"]))
    return profiler


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    profiles = []
    for path in sys.argv[1:]:
        try:
            profiles.append((path, load_profile(path)))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: {exc}")
            return 2
    for path, profiler in profiles:
        print(profiler.render(f"host-time profile: {path}"))
        print()
    if len(profiles) > 1:
        scopes = sorted({scope for _, p in profiles
                         for scope in p.shares("stage.")})
        width = max(len(s) for s in scopes) + 2
        header = "stage share comparison\n  " + " " * width + "  ".join(
            f"{path[-18:]:>18s}" for path, _ in profiles)
        print(header)
        for scope in scopes:
            row = f"  {scope:{width}s}"
            for _, profiler in profiles:
                share = profiler.shares("stage.").get(scope, 0.0)
                row += f"{100.0 * share:17.1f}%  "
            print(row.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
