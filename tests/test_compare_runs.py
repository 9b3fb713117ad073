"""``tools/compare_runs.py``: envelope-set diffs."""

import json
import sys

import pytest

from repro.core.export import result_from_dict
from repro.exec.cache import ResultCache
from repro.exec.grid import expand, opt_variant
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig

sys.path.insert(0, "tools")
try:
    import compare_runs
finally:
    sys.path.pop(0)


def _write_grid(cache_dir):
    jobs = expand(["compress"], [opt_variant(OptimizationConfig.none()),
                                 opt_variant(OptimizationConfig.all())])
    ExecutionService(scale=0.05, cache_dir=str(cache_dir)).run_many(jobs)
    return cache_dir


@pytest.fixture
def dirs(tmp_path):
    return _write_grid(tmp_path / "a"), _write_grid(tmp_path / "b")


def test_cold_grids_record_host_time_and_agree(tmp_path, capsys):
    """Inline and pooled cold grids write each job's host-time split
    into its envelope's provenance, never into the result, so their
    envelope sets still agree on every counter."""
    jobs = expand(["compress", "li"],
                  [opt_variant(OptimizationConfig.none()),
                   opt_variant(OptimizationConfig.all())])
    dirs = []
    for workers in (1, 2):
        cache_dir = tmp_path / f"jobs{workers}"
        service = ExecutionService(scale=0.05, jobs=workers,
                                   cache_dir=str(cache_dir))
        service.run_many(jobs)
        envelopes = [json.loads(path.read_text())
                     for path in sorted(cache_dir.glob("??/*.json"))]
        assert len(envelopes) == len(jobs)
        for envelope in envelopes:
            host_s = envelope["provenance"]["host_s"]
            assert set(host_s) == {"trace", "engine"}
            assert min(host_s.values()) >= 0.0
            assert "host_s" not in envelope["result"]
        assert service.host_s["engine"] > 0.0
        assert service.host_s["cache_write"] > 0.0
        dirs.append(cache_dir)
    code, out, _ = _compare(capsys, *dirs)
    assert code == 0
    assert "0 drifted of 4 paired experiments, 0 unpaired" in out


def _compare(capsys, *paths):
    code = compare_runs.main([str(p) for p in paths])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _envelope(cache_dir, label):
    for path in sorted(cache_dir.glob("??/*.json")):
        if json.loads(path.read_text())["provenance"]["label"] == label:
            return path
    raise AssertionError(f"no envelope labelled {label}")


def test_identical_envelope_sets_agree(dirs, capsys):
    code, out, _ = _compare(capsys, *dirs)
    assert code == 0
    assert "0 drifted of 2 paired experiments, 0 unpaired" in out
    # each side's code version is reported
    assert out.count("code ") == 2


def test_edited_cycles_drift_and_name_the_field(dirs, capsys):
    path = _envelope(dirs[1], "moves+reassoc+scaled_adds+placement")
    envelope = json.loads(path.read_text())
    cycles = envelope["result"]["cycles"]
    envelope["result"]["cycles"] = cycles + 1
    path.write_text(json.dumps(envelope))
    code, out, _ = _compare(capsys, *dirs)
    assert code == 1
    assert f"  cycles: {cycles} -> {cycles + 1}" in out
    assert "1 drifted of 2 paired experiments" in out


def test_older_schema_pairs_and_names_its_dropped_keys(dirs, capsys):
    """An envelope of an older export schema still reads and pairs:
    the diff names the schema change and every key only one side
    has, as ``-`` on the other."""
    path = _envelope(dirs[0], "baseline")
    envelope = json.loads(path.read_text())
    result = envelope["result"]
    result["schema"] = 3
    result["telemetry"]["fillunit.segments.built"] = 7
    result["derived"] = {"ipc": 0.5}
    path.write_text(json.dumps(envelope))
    code, out, _ = _compare(capsys, *dirs)
    assert code == 1
    assert "compress[baseline]:\n" in out
    assert "  schema: 3 -> 4" in out
    assert "  telemetry.fillunit.segments.built: 7 -> -" in out
    assert "  derived.ipc: 0.5 -> -" in out
    assert "1 drifted of 2 paired experiments, 0 unpaired" in out


def test_key_in_one_dir_only_fails(dirs, capsys):
    _envelope(dirs[0], "baseline").unlink()
    code, out, _ = _compare(capsys, *dirs)
    assert code == 1
    assert f"only in {dirs[1]}: compress[baseline] @ 0.05" in out
    assert "1 unpaired" in out


def test_duplicate_key_in_one_dir_is_an_error(dirs, capsys):
    cache = ResultCache(dirs[0])
    provenance, result = next(cache.envelopes())
    cache.put("ff" * 32, result_from_dict(result), provenance=provenance)
    code, _, err = _compare(capsys, *dirs)
    assert code == 2
    assert "appears twice" in err


def test_missing_dir_is_an_error(dirs, capsys):
    code, _, err = _compare(capsys, dirs[0], dirs[0].parent / "nonesuch")
    assert code == 2
    assert "not a directory" in err
