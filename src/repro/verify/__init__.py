"""Segment verifier: translation validation + invariant lint.

The fill unit rewrites retired instructions — move marking,
reassociation, scaled adds, placement, and predication — and
the paper's whole premise is that those rewrites never change
architectural semantics. This package *proves* that, statically, for
every pass over every optimized
:class:`~repro.tracecache.segment.TraceSegment`:

* :mod:`repro.verify.symbolic` — a symbolic dataflow evaluator whose
  term normalization makes sound rewrites literally equal;
* :mod:`repro.verify.equivalence` — translation validation of
  registers live-out, the store sequence and branch conditions;
* :mod:`repro.verify.rules` — the structural lint rules each pass must
  keep, and every rule's severity;
* :mod:`repro.verify.checker` — :class:`SegmentVerifier`, which the
  fill unit's pass manager runs after each pass under
  ``SimConfig.verify_fill``, and the :class:`VerificationReport` that
  ``repro run BENCH --verify`` prints.

See ``docs/verification.md``.
"""

from __future__ import annotations

from repro.verify.checker import SegmentVerifier, VerificationReport
from repro.verify.equivalence import check_equivalence
from repro.verify.rules import ERROR, SEVERITY, RuleInput, Violation
from repro.verify.symbolic import evaluate_segment, render_term

__all__ = ["SegmentVerifier", "VerificationReport", "check_equivalence",
           "Violation", "RuleInput", "SEVERITY", "evaluate_segment",
           "render_term", "ERROR"]
