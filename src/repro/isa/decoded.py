"""Decode-once instruction records.

The paper's fill unit decodes each instruction once, when it builds the
segment, and stores the result with the trace line (§4.1, explicit
dependency marking). The simulator's per-dynamic-instance readers —
the functional executor, the timing engine's stages, the fill
collector, the fill unit's passes — need the same facts on every
visit, so they read them from a flat :class:`Decoded` record instead
of re-deriving them through format dispatch each time.

The :class:`~repro.isa.instruction.Instruction` query methods (and
:func:`~repro.isa.instruction.move_source`) remain the reference
definitions: a record is built by calling them once, and the parity
tests compare every field against them.

Invariants (see ``docs/architecture.md``, "Decoded records"):

* A record depends only on the fields :func:`decode_key` names, so
  records scale with static instructions and distinct rewritten
  shapes, never with dynamic records.
* Program-image instructions are decoded once per static instruction,
  on first read (the executor's first visit), and the record is held
  by the instruction object (``Instruction.decoded``).
* Records are shared by copies: :meth:`~repro.isa.instruction.
  Instruction.copy` keeps the record, so a trace-segment entry shares
  its program instruction's record until a pass rewrites it.
* Only rewritten entries (squashed ones included) are re-decoded:
  :meth:`~repro.tracecache.segment.TraceSegment.redecode` does it
  before placement marks dependencies and when the fill unit seals
  the segment. It takes the record from the fill unit's decode table,
  keyed on :func:`decode_key`, so all rewritten entries of one shape
  share one record per fill unit.
* "Never stale" rests on one rule: a pass rewrites an entry only
  through :meth:`~repro.tracecache.segment.TraceSegment.rewrite` (or
  :meth:`~repro.tracecache.segment.TraceSegment.squash`), which marks
  it for re-decoding, and never rewrites the program image. Until the
  re-decode, only the entry's ``dest`` may be read (no pass changes a
  destination, and a squashed entry is a fresh NOP decoded on first
  read), and ``move_candidate`` only of entries not marked since the
  last re-decode. Nothing rewrites a sealed segment.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.isa.instruction import Instruction, move_source
from repro.isa.opcodes import Op, OpClass, op_info
from repro.isa.registers import ZERO_REG
from repro.isa.semantics import Handler, semantics_for


class Decoded:
    """One instruction's decoded facts (annotations applied)."""

    __slots__ = (
        "op", "latency", "dest", "sources", "operands",
        "move", "move_src", "move_candidate", "reassociated", "scaled",
        "optimized",
        "is_nop", "is_load", "is_store",
        "is_cond_branch", "is_ctrl", "is_call", "is_return",
        "is_indirect", "is_serializing", "terminates_segment",
        "guarded", "semantics",
    )

    op: Op
    latency: int
    #: architected destination (``None`` for none or register zero)
    dest: Optional[int]
    #: source registers, register zero dropped
    sources: Tuple[int, ...]
    #: issue operands in wakeup order: ``(reg, is_data)`` per nonzero
    #: register; ``is_data`` marks a store's value operand, which joins
    #: in the store queue instead of gating address generation
    operands: Tuple[Tuple[int, bool], ...]
    #: a marked move (completes in rename); with ``reassociated`` and
    #: ``scaled``, the fill-unit annotations trace-cache coverage
    #: counts, and ``optimized`` is any of the three
    move: bool
    reassociated: bool
    scaled: bool
    optimized: bool
    #: the register a marked move copies (``None``: not a marked move,
    #: or it copies register zero)
    move_src: Optional[int]
    #: the register the instruction copies if it is a move idiom
    #: (:func:`~repro.isa.instruction.move_source`), marked or not;
    #: the moves pass reads it for entries no pass has rewritten
    move_candidate: Optional[int]
    is_nop: bool
    is_load: bool
    is_store: bool
    is_cond_branch: bool
    is_ctrl: bool
    is_call: bool
    is_return: bool
    is_indirect: bool
    is_serializing: bool
    terminates_segment: bool
    #: carries a dynamic-predication guard
    guarded: bool
    #: the opcode's handler in :func:`repro.isa.semantics.evaluate`
    semantics: Handler

    def __init__(self, instr: Instruction) -> None:
        info = op_info(instr.op)
        self.op = instr.op
        self.latency = info.latency
        self.dest = instr.dest()
        sources = instr.sources()
        self.sources = tuple(reg for reg in sources if reg != ZERO_REG)
        self.is_nop = info.opclass is OpClass.NOP
        self.is_load = instr.is_load()
        self.is_store = instr.is_store()
        roles: List[Tuple[Optional[int], bool]]
        if instr.is_mem():
            addr_regs, value_reg = instr.mem_split()
            roles = [(reg, False) for reg in addr_regs]
            if value_reg is not None:
                roles.append((value_reg, True))
        else:
            roles = [(reg, False) for reg in sources]
        self.operands = tuple((reg, is_data) for reg, is_data in roles
                              if reg is not None and reg != ZERO_REG)
        self.move = instr.move_flag
        self.reassociated = instr.reassociated
        self.scaled = instr.scale is not None
        self.optimized = self.move or self.reassociated or self.scaled
        self.move_src = (sources[0] if instr.move_flag and sources
                         and sources[0] != ZERO_REG else None)
        self.move_candidate = move_source(instr)
        self.is_cond_branch = instr.is_cond_branch()
        self.is_ctrl = instr.is_ctrl()
        self.is_call = instr.is_call()
        self.is_return = instr.is_return()
        self.is_indirect = instr.is_indirect()
        self.is_serializing = instr.is_serializing()
        self.terminates_segment = instr.terminates_segment()
        self.guarded = instr.guard is not None
        self.semantics = semantics_for(instr.op)


def decode_key(instr: Instruction) -> Tuple[Any, ...]:
    """The fields a :class:`Decoded` record reads: two instructions
    with equal keys decode to equal records."""
    return (instr.op, instr.rd, instr.rs, instr.rt, instr.imm,
            instr.move_flag, instr.reassociated, instr.scale, instr.guard)


__all__ = ["Decoded", "decode_key"]
