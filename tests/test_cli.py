"""Command-line interface tests."""

import pytest

from repro.cli import build_parser, main
from repro.exec.fingerprint import code_version


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


def test_run_opts_predication(capsys):
    code, out = run_cli(capsys, "run", "li", "--scale", "0.05",
                        "--opts", "predication")
    assert code == 0
    assert "IPC" in out


def test_compare(capsys):
    """Several ``--opts`` names run one leg each on one trace; every
    leg after the first reports its IPC change over the first."""
    legs = ["none", "moves", "reassoc", "scaled_adds", "placement", "all"]
    code, out = run_cli(capsys, "run", "tex", "--scale", "0.1",
                        "--opts", *legs)
    assert code == 0
    summaries = [line for line in out.splitlines()
                 if line.startswith("tex ")]
    assert [line.split("[")[1].split()[0] for line in summaries] == legs
    assert "%)" not in summaries[0]
    assert all(line.endswith("%)") for line in summaries[1:])


def test_attribution_classes_sum_to_cycles(capsys):
    code, out = run_cli(capsys, "run", "compress", "--scale", "0.05",
                        "--attribution")
    assert code == 0
    lines = out.splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.startswith("cycle attribution ("))
    cycles = int(lines[head].split("(")[1].split()[0])
    table = lines[head + 1:lines.index("telemetry counters")]
    assert len(table) >= 6
    assert sum(int(line.split()[1]) for line in table) == cycles
    assert f"cycles={cycles:8d}" in out
    # --attribution alone attaches no session: it only prints
    assert "fetch.tc.hits" in out and "events:" not in out


def test_attribution_prints_each_later_legs_delta(capsys):
    """With several legs, each later leg's table is followed by its
    per-class delta against the first leg; the ``total`` row's delta
    is the cycle delta."""
    code, out = run_cli(capsys, "run", "compress", "--scale", "0.05",
                        "--opts", "none", "all", "moves", "--attribution")
    assert code == 0
    cycles = {line.split("[")[1].split()[0]:
              int(line.split("cycles=")[1].split()[0])
              for line in out.splitlines() if line.startswith("compress ")}
    heads = [line for line in out.splitlines()
             if line.startswith("cycle attribution delta against ")]
    assert heads == ["cycle attribution delta against none"] * 2
    totals = [line.split() for line in out.splitlines()
              if line.startswith("  total ")]
    assert [(int(a), int(b), int(delta)) for _, a, b, delta in totals] == [
        (cycles["none"], cycles[leg], cycles[leg] - cycles["none"])
        for leg in ("all", "moves")]


def test_figures_subset(capsys):
    """Figure 3 is in ``figures``' output, with its paper claim."""
    code, out = run_cli(capsys, "figures", "--scale", "0.05")
    assert code == 0
    assert "Figure 3" in out and "paper claim" in out


def test_tables(capsys):
    """``figures`` prints both of the paper's tables."""
    code, out = run_cli(capsys, "figures", "--scale", "0.05")
    assert code == 0
    assert "Table 1" in out and "Table 2" in out


def test_figures(tmp_path, capsys):
    """``figures`` prints every table and figure in the paper's order;
    a warm rerun replays all of it from the cache, and its stdout is
    the cold run's byte for byte (the job tally is on stderr). The
    stderr line naming the code version and grid fingerprint is the
    same warm, cold and through the pool."""
    argv = ["figures", "--scale", "0.05", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr()
    heads = ["Table 1:", "Figure 3:", "Figure 4:", "Figure 5:",
             "Figure 6:", "Figure 7:", "(mean baseline ", "Figure 8:",
             "(SPECint95 mean ", "Table 2:", "outside the 3x band "]
    starts = [line for line in cold.out.splitlines()
              if any(line.startswith(head) for head in heads)]
    assert [next(h for h in heads if line.startswith(h))
            for line in starts] == heads
    assert "simulated=150 " in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "simulated=0 " in warm.err
    code = code_version()
    provenance = [line for line in cold.err.splitlines()
                  if line.startswith(f"code: {code} grid: ")]
    assert len(provenance) == 1
    assert len(provenance[0].split("grid: ")[1]) == 64
    assert provenance[0] in warm.err.splitlines()
    assert main(["figures", "--scale", "0.05", "--jobs", "2"]) == 0
    pooled = capsys.readouterr()
    assert pooled.out == cold.out
    assert provenance[0] in pooled.err.splitlines()


def test_trace_exports_perfetto_timeline(tmp_path, capsys):
    import json
    out = tmp_path / "trace.json"
    hostprof = tmp_path / "prof.json"
    code, text = run_cli(capsys, "run", "compress", "--scale", "0.1",
                         "--verify", "--timeline", str(out),
                         "--hostprof", str(hostprof))
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
    prof = json.loads(hostprof.read_text())
    assert any(s.startswith("stage.") for s in prof["scopes"])


def test_hostprof_profiles_only_the_observers_asked_for(tmp_path, capsys):
    """``--hostprof`` alone attaches no telemetry session, so its
    profile has no observer stage, and neither does ``--attribution``,
    which only prints what every run records; ``--events`` attaches
    the session's event stage."""
    import json
    observers = {"stage.events", "stage.spans"}
    for flags in ([], ["--attribution"]):
        alone = tmp_path / "alone.json"
        code, _ = run_cli(capsys, "run", "compress", "--scale", "0.05",
                          *flags, "--hostprof", str(alone))
        assert code == 0
        scopes = set(json.loads(alone.read_text())["scopes"])
        assert "stage.fill" in scopes and not scopes & observers, flags
    observed = tmp_path / "observed.json"
    code, _ = run_cli(capsys, "run", "compress", "--scale", "0.05",
                      "--events", str(tmp_path / "e.jsonl"),
                      "--hostprof", str(observed))
    assert code == 0
    scopes = set(json.loads(observed.read_text())["scopes"])
    assert "stage.events" in scopes


def test_trace_no_verify_drops_verify_spans(tmp_path, capsys):
    import json
    out = tmp_path / "trace.json"
    code, _ = run_cli(capsys, "run", "compress", "--scale", "0.05",
                      "--timeline", str(out))
    assert code == 0
    names = {e["name"]
             for e in json.loads(out.read_text())["traceEvents"]}
    assert "segment.verify" not in names
    assert "segment.optimize" in names


def test_timeline_of_two_legs_is_one_line(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["run", "compress", "--scale", "0.05", "--opts", "none",
                 "all", "--timeline", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error: --timeline ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_repeated_opts_name_is_one_line(tmp_path, capsys):
    """Legs are labelled by their --opts name, so a repeated name would
    give two legs one label (and collapse them in an archive)."""
    events = tmp_path / "events.jsonl"
    code = main(["run", "compress", "--scale", "0.05", "--opts", "all",
                 "none", "all", "--events", str(events)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("repro: error: each --opts name labels one "
                            "leg; repeated: all\n")
    assert captured.out == ""
    assert not events.exists()


@pytest.mark.parametrize("verb", ["profile", "trace", "compare", "tables",
                                  "validate"])
def test_removed_verbs_are_rejected(verb):
    with pytest.raises(SystemExit):
        build_parser().parse_args([verb, "compress"])


def test_observed_run_matches_the_goldens(tmp_path, capsys):
    """``run --events --timeline`` records what an engine on a session
    records: the events byte for byte, and the observer goldens' event
    and span counts."""
    import io
    import json
    from collections import Counter

    from repro import workloads
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from repro.fillunit.opts.base import OptimizationConfig
    from repro.machine.executor import Executor
    from repro.telemetry import Telemetry
    from repro.telemetry.events import JsonlSink
    from tests.test_observer_goldens import GOLDENS

    golden = GOLDENS["compress-0.1"]
    events, timeline = tmp_path / "e.jsonl", tmp_path / "t.json"
    code, out = run_cli(capsys, "run", "compress", "--scale", "0.1",
                        "--opts", "all", "--events", str(events),
                        "--timeline", str(timeline))
    assert code == 0
    assert f"cycles={golden['cycles']:8d}" in out

    trace = Executor(workloads.build("compress", 0.1)).run()
    telemetry = Telemetry()
    buffer = io.StringIO()
    telemetry.attach(JsonlSink(buffer))
    Engine(SimConfig.paper(OptimizationConfig.all()),
           telemetry=telemetry).run(trace, "compress", "all")
    jsonl = events.read_text()
    assert jsonl == buffer.getvalue()
    assert dict(Counter(json.loads(line)["kind"]
                        for line in jsonl.splitlines())) \
        == golden["events"]
    # the archived events ride along as instants on "events.*" tracks
    spans = Counter(
        e["name"] for e in json.loads(timeline.read_text())["traceEvents"]
        if e["ph"] != "M" and not e["cat"].startswith("events."))
    assert dict(spans) == golden["spans"]


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


def test_undecodable_source_is_one_line(tmp_path, capsys):
    """A source file that is not UTF-8 is an assembler error naming the
    file and the line of the first bad byte, not a UnicodeDecodeError
    traceback."""
    path = tmp_path / "latin1.s"
    path.write_bytes(b"main:\n    li $a0, 1   # caf\xe9\n    halt\n")
    code = main(["asm", str(path), "--simulate"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"repro: error: line 2: {path} is not UTF-8 "
                            f"text (byte 0xe9)\n")
    assert captured.out == ""


#: a path argument that cannot be opened, per verb and flag: a missing
#: file to read, or a file to write in a directory that does not exist
BAD_PATHS = {
    "asm": ["asm", "{missing}/f.s"],
    "run-events": ["run", "compress", "--scale", "0.05",
                   "--events", "{missing}/e.jsonl"],
    "run-timeline": ["run", "compress", "--scale", "0.05",
                     "--timeline", "{missing}/t.json"],
    "run-hostprof": ["run", "compress", "--scale", "0.05",
                     "--hostprof", "{missing}/h.json"],
    "analyze-json": ["analyze", "compress", "--json", "{missing}/a.json"],
    "figures-cache-dir": ["figures", "--scale", "0.05",
                          "--cache-dir", "{file}/cache"],
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS))
def test_bad_path_is_one_line(tmp_path, capsys, case):
    """A path the OS refuses ends the verb with one ``repro: error:``
    line and exit status 1, like any other typed error."""
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    argv = [arg.format(missing=tmp_path / "missing", file=blocker)
            for arg in BAD_PATHS[case]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err + captured.out


#: argv shapes of the workload verbs; "profile" and "compare" are the
#: observed and the several-leg ``run`` that replace those verbs
SHAPES = {
    "run": ["run", "compress"],
    "profile": ["run", "compress", "--attribution"],
    "compare": ["run", "compress", "--opts", "none", "all"],
    "figures": ["figures"],
}


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("verb", ["run", "profile", "compare", "figures"])
def test_nonsense_scale_is_one_line(capsys, verb, scale):
    code = main([*SHAPES[verb], "--scale", scale])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error: workload scale ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_nonsense_jobs_is_one_line(capsys, jobs):
    code = main(["figures", "--scale", "0.05", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"repro: error: jobs must be at least 1, "
                            f"not {jobs}\n")
    assert captured.out == ""


def test_unknown_benchmark_rejected(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom"])
    # an unknown --opts name (here the retired CSE pass) is argparse's
    # usage error too, not a traceback
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "compress", "--opts", "cse"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'cse'" in capsys.readouterr().err


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


def test_analyze_cross_check(capsys):
    """Each class row prints, beside its bound, the coverage a plain
    run of the same trace reports (the paper's Table 2 columns)."""
    import re

    from repro import workloads
    from repro.core.config import SimConfig
    from repro.core.engine import Engine
    from repro.fillunit.opts.base import OptimizationConfig
    from repro.machine.executor import Executor

    code, out = run_cli(capsys, "analyze", "compress",
                        "--scale", "0.2", "--cross-check")
    assert code == 0
    assert "OK" in out and "dynamic" in out
    trace = Executor(workloads.build("compress", 0.2)).run()
    result = Engine(SimConfig.paper(OptimizationConfig.all())).run(
        trace, "compress")
    shares = result.coverage.as_percentages(result.instructions)
    rows = dict(re.findall(r"^  (\w+) +dynamic .* covered (\d+ \(.*\))$",
                           out, re.M))
    assert rows == {
        name: f"{getattr(result.coverage, name)} ({shares[name]:.1f}%)"
        for name in ("moves", "reassoc", "scaled", "any_opt")}
    assert result.coverage.any_opt > 0


def test_analyze_json_export(tmp_path, capsys):
    import json
    out_file = tmp_path / "reports.json"
    code, out = run_cli(capsys, "analyze", "compress", "--scale", "0.2",
                        "--json", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())["compress"]
    # each fact once: the report's fields, no restated counts
    assert payload["schema"] == 4
    assert "derived" not in payload
    assert payload["lint"] == []


@pytest.mark.parametrize("verb", ["run", "profile", "trace", "compare",
                                  "verify-traces", "analyze", "asm"])
def test_policy_reaches_every_engine(tmp_path, capsys, monkeypatch, verb):
    """Every verb that takes ``--policy`` builds engines whose trace
    cache and memory hierarchy run that policy, and so does ``run``
    under every observation flag ("profile", "trace"), with several
    legs ("compare") and under ``--verify`` (which replaced the
    ``verify-traces`` verb)."""
    from repro.core.engine import Engine

    engines = []
    build = Engine.__init__

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", recording_init)
    source = tmp_path / "kernel.s"
    source.write_text("main:\n    li $t0, 3\n    halt\n")
    argv = {
        "run": ["run", "compress"],
        "profile": ["run", "compress", "--attribution", "--events",
                    str(tmp_path / "e.jsonl")],
        "trace": ["run", "compress", "--timeline",
                  str(tmp_path / "t.json"), "--hostprof",
                  str(tmp_path / "hp.json")],
        "compare": ["run", "compress", "--opts", "none", "all"],
        "verify-traces": ["run", "compress", "--verify"],
        "analyze": ["analyze", "compress", "--cross-check"],
        "asm": ["asm", str(source), "--simulate"],
    }[verb]
    if verb != "asm":
        argv += ["--scale", "0.05"]
    code, _ = run_cli(capsys, *argv, "--policy", "srrip")
    assert code == 0
    assert len(engines) == (2 if verb == "compare" else 1)
    for engine in engines:
        assert engine.trace_cache.config.policy == "srrip"
        assert engine.hierarchy.config.policy == "srrip"
