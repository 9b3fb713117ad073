"""Every verb's arguments, drawn from a small grammar, end cleanly.

Each numeric option is drawn from a valid value, 0, a negative, a huge
value and NaN, and ``asm``'s file from a valid source, a non-UTF-8 one
and a missing one. Whatever the draw, ``repro`` exits 0, or exits
non-zero with one error line and no traceback: ``repro: error: ...``
for a typed error, or argparse's own ``repro VERB: error: ...`` after
its usage lines for a value of the wrong type. Valid scales stay at
0.05 or less so no draw runs long, and ``--jobs`` is drawn only from
{-1, 0, 1, 2}: a huge value would start that many worker processes.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

HUGE_INT = str(10 ** 30)


def number(*valid: str, huge: str = HUGE_INT) -> st.SearchStrategy:
    """One option value: *valid*, zero, negative, huge or NaN."""
    return st.sampled_from([*valid, "0", "-1", huge, "nan"])


SCALE = number("0.02", "0.05", huge="1e300")
LATENCY = number("1", "5")


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """``asm``'s file argument: a valid program, one that is not UTF-8
    and one that does not exist."""
    root = tmp_path_factory.mktemp("sources")
    valid = root / "ok.s"
    valid.write_text("main:\n    li $a0, 9\n    li $v0, 1\n    syscall\n"
                     "    halt\n")
    latin1 = root / "latin1.s"
    latin1.write_bytes(b"main:\n    halt   # caf\xe9\n")
    return [str(valid), str(latin1), str(root / "missing.s")]


@st.composite
def argv(draw, verb: str, files) -> list:
    """One command line of *verb*."""
    if verb == "list":
        return ["list"]
    if verb == "run":
        args = ["run", draw(st.sampled_from(["compress", "li"])),
                "--scale", draw(SCALE),
                "--opts", *draw(st.sampled_from([["none"], ["all"],
                                                 ["none", "all"]])),
                "--fill-latency", draw(LATENCY)]
        return args + draw(st.sampled_from([[], ["--verify"]]))
    if verb == "figures":
        return ["figures", "--scale", draw(SCALE),
                "--jobs", draw(st.sampled_from(["-1", "0", "1", "2"]))]
    if verb == "analyze":
        return ["analyze", "compress", "--scale", draw(SCALE),
                "--show", draw(number("3"))]
    return ["asm", draw(st.sampled_from(files)),
            "--max-instructions", draw(number("1000")),
            "--fill-latency", draw(LATENCY),
            *draw(st.sampled_from([[], ["--simulate"]]))]


def invoke(args: list):
    """``repro``'s exit status and stderr for *args*, run in-process;
    an exception that escapes ``main`` fails the test with its
    traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:       # argparse's usage error
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("verb, examples", [
    ("list", 1), ("run", 12), ("figures", 4), ("analyze", 8),
    ("asm", 12)])
def test_every_draw_exits_cleanly(sources, verb, examples):
    @given(argv(verb, sources))
    @settings(max_examples=examples, deadline=None)
    def check(args):
        code, err = invoke(args)
        if code == 0:
            return
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and re.match(
            r"repro( [a-z]+)?: error: ", errors[0]), (args, err)
        assert errors[0] == err.splitlines()[-1], (args, err)
        assert "Traceback" not in err, (args, err)
    check()
