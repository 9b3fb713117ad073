"""Function extents over the static CFG.

Functions are discovered symbolically, the way a binary analyzer would
see them: every ``JAL`` target is a function entry and the program
entry anchors the root function. Function *extents* follow the layout
convention the workload generators obey — each function's code is the
contiguous address range from its entry to the next entry (or the end
of text) — which keeps membership deterministic. A block that can fall
through past its extent's end slides into the next function without a
call: the ``missing-return`` lint signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.static.cfg import ControlFlowGraph, direct_target
from repro.isa.opcodes import Op


@dataclass(frozen=True)
class FunctionInfo:
    """One discovered function: its extent and its fall-off points."""

    entry: int
    name: str
    end: int                     # one past the extent's last byte
    #: PCs whose block can fall past the extent end into the next
    #: function (implicit fallthrough, not a transfer)
    fall_off: Tuple[int, ...]


def _function_name(cfg: ControlFlowGraph, entry: int) -> str:
    for name, addr in cfg.program.symbols.items():
        if addr == entry:
            return name
    return f"fn_{entry:#x}"


def find_functions(cfg: ControlFlowGraph) -> Dict[int, FunctionInfo]:
    """The functions of *cfg*, by entry PC."""
    program = cfg.program
    entries: Set[int] = {cfg.blocks[cfg.entry].start}
    for block in cfg.blocks:
        for instr in block.instrs:
            if instr.op is Op.JAL:
                target = direct_target(instr)
                if target is not None and program.contains_pc(target):
                    entries.add(target)

    ordered = sorted(entries)
    functions: Dict[int, FunctionInfo] = {}
    for i, entry in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else program.text_end
        fall_off: List[int] = []
        if end < program.text_end:
            for block in cfg.blocks:
                last = block.last
                last_pc = last.pc or 0
                if entry <= block.start < end and last_pc + 4 == end \
                        and (not last.is_ctrl() or last.is_cond_branch()
                             or last.op in (Op.SYSCALL, Op.JAL, Op.JALR)):
                    fall_off.append(last_pc)
        functions[entry] = FunctionInfo(
            entry=entry, name=_function_name(cfg, entry), end=end,
            fall_off=tuple(fall_off))
    return functions


__all__ = ["FunctionInfo", "find_functions"]
