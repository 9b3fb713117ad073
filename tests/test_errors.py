"""Error hierarchy tests."""

import pytest

from repro.errors import (AssemblerError, ConfigError, ExecutionError,
                          ReproError, SegmentError)


def test_all_derive_from_repro_error():
    for cls in (AssemblerError, ExecutionError, ConfigError,
                SegmentError):
        assert issubclass(cls, ReproError)


def test_assembler_error_line_prefix():
    err = AssemblerError("bad thing", line=7)
    assert err.line == 7
    assert str(err) == "line 7: bad thing"


def test_assembler_error_without_line():
    err = AssemblerError("bad thing")
    assert err.line is None
    assert str(err) == "bad thing"


def test_catchable_at_base():
    with pytest.raises(ReproError):
        raise SegmentError("boom")
