"""Back-compatible entry point for the pipeline timing model.

The monolithic ``PipelineModel`` was decomposed into composable stage
objects driven by :class:`repro.core.engine.Engine` (see
``docs/architecture.md``): fetch, rename, issue, execute, retire and
fill stages behind the :class:`repro.core.stages.base.PipelineStage`
contract, with an explicit :class:`repro.core.stages.base.MachineState`
handoff.

``PipelineModel`` remains the stable name existing callers and tests
construct — it *is* the engine, with the machine's components
(``predictor``, ``trace_cache``, ``fill_unit``, ``checkpoints``, …)
and its ``stages`` list exposed, and is bit-for-bit equivalent to the
pre-refactor model.
"""

from __future__ import annotations

from repro.core.engine import Engine


class PipelineModel(Engine):
    """One configured machine instance; replays committed traces.

    A thin alias of :class:`~repro.core.engine.Engine` — construction
    signature, ``run()`` and all component attributes are identical.
    """


__all__ = ["PipelineModel"]
