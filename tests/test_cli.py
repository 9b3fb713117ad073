"""Command-line interface tests."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "m88ksim" in out and "gnuchess" in out
    assert out.count("\n") >= 16


def test_run(capsys):
    code, out = run_cli(capsys, "run", "compress", "--scale", "0.1",
                        "--opts", "moves")
    assert code == 0
    assert "IPC" in out and "transformed" in out


def test_compare(capsys):
    code, out = run_cli(capsys, "compare", "tex", "--scale", "0.1")
    assert code == 0
    assert "baseline" in out
    for name in ("moves", "reassoc", "scaled_adds", "placement", "all"):
        assert name in out


def test_figures_subset(capsys):
    code, out = run_cli(capsys, "figures", "--scale", "0.05",
                        "--only", "3")
    assert code == 0
    assert "Figure 3" in out and "paper claim" in out


def test_tables(capsys):
    code, out = run_cli(capsys, "tables", "--scale", "0.05")
    assert code == 0
    assert "Table 1" in out and "Table 2" in out


def test_trace_exports_perfetto_timeline(tmp_path, capsys):
    import json
    out = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    hostprof = tmp_path / "prof.json"
    code, text = run_cli(capsys, "trace", "compress", "--scale", "0.1",
                         "--out", str(out),
                         "--metrics-out", str(metrics),
                         "--hostprof-out", str(hostprof))
    assert code == 0
    assert "perfetto" in text and "host-time profile" in text
    events = json.loads(out.read_text())["traceEvents"]
    assert events
    for event in events:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in event
    names = {e["name"] for e in events}
    assert {"segment.collect", "segment.optimize", "segment.verify",
            "tc.insert", "tc.reuse"} <= names
    assert metrics.read_text().endswith("# EOF\n")
    prof = json.loads(hostprof.read_text())
    assert any(s.startswith("stage.") for s in prof["scopes"])


def test_trace_no_verify_drops_verify_spans(tmp_path, capsys):
    import json
    out = tmp_path / "trace.json"
    code, _ = run_cli(capsys, "trace", "compress", "--scale", "0.05",
                      "--no-verify", "--out", str(out))
    assert code == 0
    names = {e["name"]
             for e in json.loads(out.read_text())["traceEvents"]}
    assert "segment.verify" not in names
    assert "segment.optimize" in names


def test_asm_command(tmp_path, capsys):
    source = tmp_path / "kernel.s"
    source.write_text("""
    main:
        li   $a0, 9
        li   $v0, 1
        syscall
        halt
    """)
    code, out = run_cli(capsys, "asm", str(source), "--simulate",
                        "--opts", "none")
    assert code == 0
    assert "[9]" in out and "IPC" in out


@pytest.mark.parametrize("source, extra, message", [
    ("main: lw $t1, 1($zero)\n", [],
     "misaligned 4-byte access at 0x1"),
    ("main:\n    bogus $t1\n", [], "line 2: unknown mnemonic"),
    ("loop: j loop\n", ["--max-instructions", "100"],
     "program did not halt within 100 instructions"),
])
def test_asm_typed_error_is_one_line(tmp_path, capsys, source, extra,
                                     message):
    path = tmp_path / "f.s"
    path.write_text(source)
    code = main(["asm", str(path), *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_analyze(capsys):
    code, out = run_cli(capsys, "analyze", "compress", "li",
                        "--scale", "0.2")
    assert code == 0
    assert "compress" in out and "li" in out
    assert "0 errors, 0 warnings" in out


def test_analyze_unknown_benchmark(capsys):
    code, out = run_cli(capsys, "analyze", "doom")
    assert code == 2
    assert "unknown benchmark" in out


def test_analyze_baseline_round_trip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.2",
                        "--write-baseline", str(baseline))
    assert code == 0 and baseline.exists()
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.2",
                        "--baseline", str(baseline))
    assert code == 0
    # A scale mismatch makes the comparison meaningless: usage error.
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.3",
                        "--baseline", str(baseline))
    assert code == 2
    assert "matching --scale" in out


def test_analyze_baseline_regression_fails(tmp_path, capsys):
    import json
    baseline = tmp_path / "baseline.json"
    run_cli(capsys, "analyze", "compress", "--scale", "0.2",
            "--write-baseline", str(baseline))
    payload = json.loads(baseline.read_text())
    # Pretend the baseline had even fewer findings than now (any new
    # finding relative to the recorded counts must fail the gate).
    recorded = payload["benchmarks"]["compress"]
    recorded["lint"] = {}
    baseline.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.2",
                        "--baseline", str(baseline))
    # The workloads are lint-clean, so nothing regresses even against
    # an empty record; force a fake regression instead.
    assert code == 0
    recorded["lint"] = {"warnings": {"dead-write": -1}}
    baseline.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.2",
                        "--baseline", str(baseline))
    assert code == 1
    assert "regressed" in out and "FAIL" in out


def test_analyze_baseline_warning_regression_fails(tmp_path, capsys):
    import json
    baseline = tmp_path / "baseline.json"
    run_cli(capsys, "analyze", "compress", "--scale", "0.2",
            "--write-baseline", str(baseline))
    payload = json.loads(baseline.read_text())
    recorded = payload["benchmarks"]["compress"]
    # the written shape is severity-split; a warning-count regression
    # must fail the gate even with errors untouched.
    assert set(recorded["lint"]) == {"errors", "warnings"}
    recorded["lint"]["warnings"]["missing-return"] = -1
    baseline.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.2",
                        "--baseline", str(baseline))
    assert code == 1
    assert "missing-return" in out and "regressed" in out


def test_analyze_cross_check(capsys):
    code, out = run_cli(capsys, "analyze", "compress",
                        "--scale", "0.2", "--cross-check")
    assert code == 0
    assert "OK" in out and "dynamic" in out


def test_analyze_json_export(tmp_path, capsys):
    import json
    out_file = tmp_path / "reports.json"
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.2",
                        "--json", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["compress"]["derived"]["lint_errors"] == 0
