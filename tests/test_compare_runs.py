"""``tools/compare_runs.py``: envelope-set and attribution diffs."""

import json
import sys

import pytest

from repro.cli import main as repro_main
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


def test_key_in_one_dir_only_fails(dirs, capsys):
    _envelope(dirs[0], "baseline").unlink()
    code, out, _ = _compare(capsys, *dirs)
    assert code == 1
    assert f"only in {dirs[1]}: compress[baseline] @ 0.05" in out
    assert "1 unpaired" in out


def test_duplicate_key_in_one_dir_is_an_error(dirs, capsys):
    cache = ResultCache(dirs[0])
    provenance, result = next(cache.envelopes())
    cache.put("ff" * 32, result, provenance=provenance)
    code, _, err = _compare(capsys, *dirs)
    assert code == 2
    assert "appears twice" in err


def test_missing_dir_is_an_error(dirs, capsys):
    code, _, err = _compare(capsys, dirs[0], dirs[0].parent / "nonesuch")
    assert code == 2
    assert "not a directory" in err


def test_jsonl_one_run_against_many_lists_the_unpaired(tmp_path, capsys):
    one, many = tmp_path / "n.jsonl", tmp_path / "b.jsonl"
    assert repro_main(["run", "compress", "--scale", "0.05",
                       "--opts", "none", "--events", str(one)]) == 0
    assert repro_main(["run", "compress", "--scale", "0.05", "--opts",
                       "none", "moves", "reassoc", "scaled_adds",
                       "placement", "all", "--events", str(many)]) == 0
    capsys.readouterr()
    code, out, _ = _compare(capsys, one, many)
    assert code == 1
    # the none runs pair; the other five legs have no partner
    assert out.startswith("compress/none\n")
    assert f"only in {one}" not in out
    for label in ("all", "moves", "placement"):
        assert f"only in {many}: compress/{label}" in out
    assert "0 of 1 compared runs changed cycle count, 5 unpaired" in out


def test_jsonl_single_runs_pair_across_labels(tmp_path, capsys):
    none, every = tmp_path / "n.jsonl", tmp_path / "a.jsonl"
    for opts, path in (("none", none), ("all", every)):
        assert repro_main(["run", "compress", "--scale", "0.05",
                           "--opts", opts, "--events", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = _compare(capsys, none, every)
    assert code == 1
    assert "compress/none vs compress/all" in out
    assert "1 of 1 compared runs changed cycle count, 0 unpaired" in out
