"""Workload suite tests: every benchmark assembles, runs to completion,
and exhibits its designed idiom mix."""

import pytest

from repro import workloads
from repro.errors import ConfigError, UnknownBenchmarkError
from repro.machine.executor import Executor
from repro.workloads.builder import AsmBuilder, lcg_values
from repro.workloads.registry import PAPER_TABLE2, specint_names

ALL_NAMES = workloads.names()


def test_fifteen_benchmarks_registered():
    assert len(ALL_NAMES) == 15
    assert ALL_NAMES[0] == "compress" and ALL_NAMES[-1] == "tex"


def test_specint_subset():
    names = specint_names()
    assert len(names) == 8
    assert "m88ksim" in names and "gnuchess" not in names


def test_registry_specs_complete():
    for name in ALL_NAMES:
        spec = workloads.spec(name)
        assert spec.suite in ("SPECint95", "UNIX")
        assert spec.paper_table2.total > 0
        assert spec.description


def test_unknown_benchmark_rejected():
    with pytest.raises(UnknownBenchmarkError) as info:
        workloads.spec("doom")
    assert "'doom'" in str(info.value)
    assert all(name in str(info.value) for name in ALL_NAMES)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_benchmark_builds_and_halts(name):
    program = workloads.build(name, scale=0.1)
    trace = Executor(program).run(max_instructions=2_000_000)
    assert len(trace) > 1000
    assert trace[-1].instr.op.value in ("halt", "syscall")
    assert trace.output        # every benchmark reports a checksum


@pytest.mark.parametrize("name", ALL_NAMES)
def test_benchmark_deterministic(name):
    a = Executor(workloads.build(name, scale=0.05)).run()
    b = Executor(workloads.build(name, scale=0.05)).run()
    assert a.output == b.output
    assert len(a) == len(b)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                   float("-inf"), 0.0, -1.0])
def test_build_rejects_nonsense_scale(scale):
    """A scale that is not finite and positive is a typed error naming
    the value, not a raw ValueError/OverflowError or a silently
    clamped minimum program."""
    with pytest.raises(ConfigError, match=f"got {scale!r}"):
        workloads.build("compress", scale=scale)


def test_scale_controls_length():
    short = Executor(workloads.build("compress", scale=0.1)).run()
    long = Executor(workloads.build("compress", scale=0.4)).run()
    assert len(long) > 2 * len(short)


def test_m88ksim_is_reassociation_rich():
    """The stand-in must carry its Table 2 signature: plenty of small
    constant ADDI chains crossing control flow."""
    trace = Executor(workloads.build("m88ksim", scale=0.1)).run()
    addi = sum(1 for r in trace
               if r.instr.op.value == "addi" and r.instr.rs != r.instr.rd
               and r.instr.rd != 0)
    assert addi / len(trace) > 0.10


def test_go_is_scaled_add_rich():
    trace = Executor(workloads.build("go", scale=0.1)).run()
    shifts = sum(1 for r in trace
                 if r.instr.op.value == "sll" and 1 <= (r.instr.imm or 0) <= 3)
    assert shifts / len(trace) > 0.05


def test_li_is_move_rich():
    from repro.isa.instruction import move_source
    trace = Executor(workloads.build("li", scale=0.1)).run()
    moves = sum(1 for r in trace if move_source(r.instr) is not None)
    assert moves / len(trace) > 0.06


def test_interpreters_use_indirect_jumps():
    for name in ("perl", "python", "li"):
        trace = Executor(workloads.build(name, scale=0.1)).run()
        indirect = sum(1 for r in trace
                       if r.instr.is_indirect() and not r.instr.is_return())
        assert indirect > 0, name


def test_paper_table2_matches_paper_values():
    assert PAPER_TABLE2["m88ksim"].reassoc == 12.9
    assert PAPER_TABLE2["go"].scaled == 9.6
    assert PAPER_TABLE2["gnuplot"].moves == 11.3
    # paper: "slightly more than 13% of the instructions had some form
    # of transformation applied"
    assert abs(sum(row.total for row in PAPER_TABLE2.values()) / 15
               - 13.1) < 0.2


# --- builder utilities -----------------------------------------------------

def test_asm_builder_unique_labels():
    builder = AsmBuilder("t")
    assert builder.label("x") != builder.label("x")


def test_asm_builder_sections():
    builder = AsmBuilder("t")
    builder.data_words("arr", [1, 2, 3])
    builder.emit("main:", "    halt")
    program = builder.build()
    assert program.symbols["arr"] == program.data_base
    assert len(program) == 1


def test_asm_builder_long_word_lists_chunked():
    builder = AsmBuilder("t")
    builder.data_words("big", list(range(40)))
    builder.emit("main:", "    halt")
    program = builder.build()
    import struct
    values = struct.unpack("<40i", bytes(program.data[:160]))
    assert list(values) == list(range(40))


def test_lcg_values_deterministic_and_bounded():
    a = lcg_values(7, 100, 256)
    b = lcg_values(7, 100, 256)
    assert a == b
    assert all(0 <= v < 256 for v in a)
    assert lcg_values(8, 100, 256) != a
