"""CLI coverage for the segment verifier: ``repro run BENCH --verify``."""

import pytest

from repro.cli import build_parser, main
from repro.fillunit.opts.reassoc import ReassociationPass
from repro.isa.opcodes import Op


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_traces_default_benchmarks(capsys):
    """The seed workloads verify clean under the paper's four passes,
    each pass checked on its own; each leg prints its own report."""
    for bench, legs in (("compress", ["none", "all"]), ("li", ["all"])):
        code, out = run_cli(capsys, "run", bench, "--scale", "0.05",
                            "--opts", *legs, "--verify")
        assert code == 0, out
        assert out.count("segments checked") == len(legs)
        assert out.count("-> CLEAN") == len(legs)
        assert "e.g. pc=" not in out


def test_verify_traces_extended_opts(capsys):
    code, out = run_cli(capsys, "run", "li", "--scale", "0.05",
                        "--opts", "extended", "--verify")
    assert code == 0
    assert "-> CLEAN" in out


def test_verify_traces_unknown_benchmark(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "nonesuch", "--verify"])
    assert exc.value.code == 2


def test_verify_traces_verb_is_gone():
    """``run --verify`` is the one verification entry point."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify-traces"])
    assert exc.value.code == 2


def test_verify_fails_on_a_broken_pass(capsys, monkeypatch):
    """A paper pass that also bumps an ``addi`` immediate changes what
    the segment computes: ``run --verify`` names the pass, the rule and
    a sample segment, and exits 1."""
    apply = ReassociationPass.apply

    def broken(self, segment, ctx):
        stats = apply(self, segment, ctx)
        for instr in segment.instrs:
            if instr.op is Op.ADDI and instr.imm:
                instr.imm += 4
                break
        return stats

    monkeypatch.setattr(ReassociationPass, "apply", broken)
    code, out = run_cli(capsys, "run", "compress", "--scale", "0.05",
                        "--verify")
    assert code == 1
    assert "violations" in out and "-> CLEAN" not in out
    assert "reassoc" in out
    assert "equiv-registers" in out
    assert "e.g. pc=0x" in out
