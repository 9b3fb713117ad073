"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class AssemblerError(ReproError):
    """Raised when assembly source cannot be assembled.

    Carries the source line number (1-based) when known.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded into, or decoded
    from, its 32-bit binary form."""


class ExecutionError(ReproError):
    """Raised when the functional machine cannot execute an instruction
    (unmapped memory, misaligned access, bad opcode, runaway program)."""


class ConfigError(ReproError):
    """Raised for inconsistent simulator configuration values."""


class SegmentError(ReproError):
    """Raised when a trace segment violates a structural invariant."""
