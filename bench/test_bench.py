"""Checks of the benchmark itself; run with ``pytest bench/`` (outside
the tier-1 ``testpaths``). Every run here is a single pass."""

import json
import shutil
import subprocess
import sys

import pytest

from compare import verdict
from spec import NAME_RE, ROOT, load_spec

RUN = ROOT / "bench" / "run.py"
SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(out_dir, *args):
    """``(last stdout line, run records)`` of ``run.py --passes 1``."""
    out = out_dir / "runs.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--passes", "1", "--out", str(out),
         "--trace-dir", str(out_dir / "trace"), *args],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900,
        cwd=ROOT)
    with open(out) as handle:
        runs = json.load(handle)["runs"]
    return done.stdout.strip().splitlines()[-1], runs


@pytest.fixture(scope="module")
def plain_runs(tmp_path_factory):
    """One untraced run of every workload, each in its own process."""
    _, runs = bench(tmp_path_factory.mktemp("plain"))
    return {run["workload"]: run for run in runs}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    _, runs = bench(tmp_path_factory.mktemp("traced"), "--trace", "1")
    return {run["workload"]: run for run in runs}


def units(run) -> dict:
    return {name: m["unit"] for name, m in run["metrics"].items()}


def test_declared_names_are_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_every_workload_runs_and_passes_its_checks(plain_runs):
    assert list(plain_runs) == WORKLOADS
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for run in plain_runs.values():
        assert run["correct"] and run["failed"] == 0, run["problems"]
        assert run["attempted"] == len(run["order"]) >= 1
        assert units(run) == declared
        assert all(m["value"] > 0 for m in run["metrics"].values())
    assert plain_runs["observed"]["outputs"]["compress"] == 16344
    assert plain_runs["observed"]["outputs"]["li"] == 13709


def test_traced_runs_report_every_per_layer_metric(traced_runs):
    assert list(traced_runs) == WORKLOADS
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, run in traced_runs.items():
        assert run["correct"], run["problems"]
        assert units(run) == declared
        metrics = {k: m["value"] for k, m in run["metrics"].items()}
        assert metrics["trace.overhead"] > 0
        if name == "tiny-evict":
            assert metrics["tracecache.evictions"] > 0
            assert metrics["cache.l1d.evictions"] > 0
        else:
            assert metrics["tracecache.evictions"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_their_parents(traced_runs, workload):
    with open(traced_runs[workload]["trace_file"]) as handle:
        events = [e for e in json.load(handle)["traceEvents"]
                  if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in events}
    assert {e["name"] for e in events} >= {"op", "core.ctor", "core.run"}
    for event in events:
        own = event["args"]["self_us"]
        assert -1e-6 <= own <= event["dur"] + 1e-6
        parent = event["args"]["parent"]
        if parent is not None:
            assert own <= by_id[parent]["dur"] + 1e-6
            assert by_id[parent]["args"]["op"] == event["args"]["op"]


def test_result_line_and_seed_order(tmp_path, plain_runs):
    line, (run,) = bench(tmp_path, "--workload", "suite", "--seed", "2")
    last = json.loads(line)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == run["metrics"]
    one = plain_runs["suite"]
    assert run["order"] != one["order"]
    assert sorted(run["order"]) == sorted(one["order"])
    assert run["outputs"] == one["outputs"]


def test_corrupted_golden_counts_as_failed(tmp_path):
    with open(ROOT / "bench" / "goldens.json") as handle:
        goldens = json.load(handle)
    goldens["observed"]["li"] += 1
    corrupt = tmp_path / "goldens.json"
    corrupt.write_text(json.dumps(goldens))
    line, (run,) = bench(tmp_path, "--workload", "observed",
                         "--goldens", str(corrupt))
    last = json.loads(line)
    assert not last["correct"]
    assert last["failed"] / last["attempted"] > 0
    assert all(key.endswith(":li") for key in run["problems"])


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite"],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [v * 1.02 for v in base], "lower", 0.1) == "same"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
