"""Benchmark registry: the fifteen stand-ins, their builders, and the
paper-reported figures each should be compared against.

``PAPER_TABLE2`` records the paper's Table 2 (percentage of committed
instructions transformed, per optimization) — the target *fingerprint*
each synthetic kernel is tuned toward. ``PAPER_TABLE1`` records Table 1
(simulated instruction counts and inputs) for the documentation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import UnknownBenchmarkError
from repro.program.image import Program


@dataclass(frozen=True)
class Table2Row:
    """The paper's Table 2 entry for one benchmark (percent)."""

    moves: float
    reassoc: float
    scaled: float
    total: float


@dataclass(frozen=True)
class Table1Row:
    """The paper's Table 1 entry: simulated length and input set."""

    inst_count: str
    input_set: str


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry for one benchmark."""

    name: str
    builder: Callable
    suite: str                  # "SPECint95" or "UNIX"
    paper_table2: Table2Row
    paper_table1: Table1Row
    description: str

    def build(self, scale: float = 1.0) -> Program:
        return self.builder(scale)


#: Paper Table 2, verbatim.
PAPER_TABLE2 = {
    "compress": Table2Row(3.0, 1.5, 3.8, 8.3),
    "gcc": Table2Row(6.4, 2.2, 3.1, 11.7),
    "go": Table2Row(2.5, 0.7, 9.6, 12.8),
    "ijpeg": Table2Row(4.6, 2.1, 5.9, 12.6),
    "li": Table2Row(8.0, 2.1, 1.3, 11.4),
    "m88ksim": Table2Row(8.2, 12.9, 1.2, 22.3),
    "perl": Table2Row(6.3, 1.1, 3.3, 10.7),
    "vortex": Table2Row(9.4, 3.9, 1.9, 15.2),
    "gnuchess": Table2Row(3.4, 10.4, 5.7, 19.5),
    "ghostscript": Table2Row(4.6, 7.9, 1.9, 14.4),
    "pgp": Table2Row(7.9, 4.0, 1.0, 12.9),
    "gnuplot": Table2Row(11.3, 1.4, 2.3, 15.0),
    "python": Table2Row(6.3, 2.8, 2.8, 11.9),
    "sim-outorder": Table2Row(4.9, 1.1, 3.1, 9.1),
    "tex": Table2Row(3.1, 0.6, 5.2, 8.9),
}

#: Paper Table 1, verbatim.
PAPER_TABLE1 = {
    "compress": Table1Row("95M", "test.in (30000 elements)"),
    "gcc": Table1Row("157M", "jump.i"),
    "go": Table1Row("151M", "2stone9.in (abbreviated)"),
    "ijpeg": Table1Row("500M", "penguin.ppm"),
    "li": Table1Row("500M", "train.lsp"),
    "m88ksim": Table1Row("493M", "dhry.test"),
    "perl": Table1Row("41M", "scrabbl.pl"),
    "vortex": Table1Row("214M", "vortex.in (abbreviated)"),
    "gnuchess": Table1Row("119M", "-"),
    "ghostscript": Table1Row("180M", "-"),
    "pgp": Table1Row("322M", "-"),
    "gnuplot": Table1Row("284M", "-"),
    "python": Table1Row("220M", "-"),
    "sim-outorder": Table1Row("100M", "-"),
    "tex": Table1Row("164M", "-"),
}

_ORDER = [
    "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex",
    "gnuchess", "ghostscript", "pgp", "gnuplot", "python",
    "sim-outorder", "tex",
]

_SPECINT = {"compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl",
            "vortex"}

_REGISTRY: dict = {}


def register(name: str, builder: Callable, description: str) -> None:
    """Register a benchmark builder (called by the suite modules)."""
    _REGISTRY[name] = BenchmarkSpec(
        name=name,
        builder=builder,
        suite="SPECint95" if name in _SPECINT else "UNIX",
        paper_table2=PAPER_TABLE2[name],
        paper_table1=PAPER_TABLE1[name],
        description=description,
    )


def names() -> list:
    _ensure_loaded()
    return list(_ORDER)


def spec(name: str) -> BenchmarkSpec:
    _ensure_loaded()
    if name not in _REGISTRY:
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; known: {', '.join(_ORDER)}")
    return _REGISTRY[name]


def specint_names() -> list:
    return [n for n in names() if n in _SPECINT]


_LOADED = False


def _ensure_loaded() -> None:
    """Import benchmark modules lazily (they self-register)."""
    global _LOADED
    if _LOADED:
        return
    from repro.workloads import suites  # noqa: F401  (registers on import)
    _LOADED = True


__all__ = [
    "BenchmarkSpec", "Table1Row", "Table2Row",
    "PAPER_TABLE1", "PAPER_TABLE2",
    "names", "spec", "specint_names", "register",
]
