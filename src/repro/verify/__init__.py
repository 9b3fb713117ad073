"""Segment verifier: translation validation + invariant lint.

The fill unit rewrites retired instructions — move marking,
reassociation, scaled adds, placement, and the extension passes — and
the paper's whole premise is that those rewrites never change
architectural semantics. This package *proves* that, statically, for
every optimized :class:`~repro.tracecache.segment.TraceSegment`:

* :mod:`repro.verify.symbolic` — a symbolic dataflow evaluator whose
  term normalization makes sound rewrites literally equal;
* :mod:`repro.verify.equivalence` — translation validation of
  registers live-out, the store sequence and branch conditions;
* :mod:`repro.verify.rules` — a pluggable invariant-lint framework
  (rule registry, severities, fix-it hints) for the structural
  contracts each pass must keep;
* :mod:`repro.verify.checker` — :class:`SegmentVerifier`, the facade
  the fill unit's online mode, the ``verify-traces`` CLI verb and
  ``tools/lint_segments.py`` share;
* :mod:`repro.verify.archive` — JSONL serialization of segment pairs
  for offline lints.

See ``docs/verification.md``.
"""

from __future__ import annotations

from repro.verify.checker import SegmentVerifier, VerificationReport
from repro.verify.equivalence import check_equivalence
from repro.verify.rules import (
    ERROR,
    RULES,
    RuleInput,
    Violation,
    rule,
    run_rules,
)
from repro.verify.symbolic import evaluate_segment, render_term

__all__ = ["SegmentVerifier", "VerificationReport", "check_equivalence",
           "Violation", "RuleInput", "RULES", "rule", "run_rules",
           "evaluate_segment", "render_term", "ERROR"]
