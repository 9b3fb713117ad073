"""Call graph over the static CFG.

Functions are discovered symbolically, the way a binary analyzer would
see them: every ``JAL`` target is a function entry and the program
entry anchors the root function. Function *extents* follow the layout
convention the workload generators obey — each function's code is the
contiguous address range from its entry to the next entry (or the end
of text) — which keeps membership deterministic.

Edges are over-approximate in exactly one direction: an indirect call
(``JALR``) edges to *every* known entry, and a non-return ``JR`` (jump
table) edges to every function owning one of its over-approximate CFG
successors. Extra edges can only make more functions reachable, so
the ``unreachable-function`` lint built on this graph never reports a
function some real path could still reach.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.static.cfg import ControlFlowGraph, direct_target
from repro.isa.opcodes import Op


@dataclass(frozen=True)
class CallSite:
    """One call instruction and its possible callees (entry PCs)."""

    pc: int
    caller: int                  # entry PC of the calling function
    callees: Tuple[int, ...]     # possible callee entry PCs (sorted)
    direct: bool                 # JAL (True) vs JALR (False)


@dataclass(frozen=True)
class FunctionInfo:
    """One discovered function: its extent and structural summary."""

    entry: int
    name: str
    end: int                     # one past the extent's last byte
    blocks: Tuple[int, ...]      # CFG block indices inside the extent
    call_sites: Tuple[CallSite, ...]
    returns: Tuple[int, ...]     # PCs of `jr $ra` terminators
    #: PCs whose block can fall past the extent end into the next
    #: function (implicit fallthrough, not a transfer) — the
    #: ``missing-return`` lint signal.
    fall_off: Tuple[int, ...]


class CallGraph:
    """Functions plus over-approximate call edges for one program."""

    def __init__(self, cfg: ControlFlowGraph,
                 functions: Dict[int, FunctionInfo], entry: int,
                 edges: Set[Tuple[int, int]]) -> None:
        self.cfg = cfg
        self.functions = functions
        self.entry = entry
        self.edges = edges
        self._entries = sorted(functions)
        self._succs: Dict[int, List[int]] = {f: [] for f in functions}
        for src, dst in sorted(edges):
            self._succs[src].append(dst)

    # -- navigation ----------------------------------------------------

    def containing(self, pc: int) -> Optional[int]:
        """Entry PC of the function whose extent contains *pc*."""
        index = bisect_right(self._entries, pc) - 1
        if index < 0:
            return None
        entry = self._entries[index]
        return entry if pc < self.functions[entry].end else None

    # -- reachability --------------------------------------------------

    def reachable(self) -> Set[int]:
        """Function entries reachable from the root over call edges."""
        if self.entry not in self.functions:
            return set()
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ in self._succs[stack.pop()]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen


def _function_name(cfg: ControlFlowGraph, entry: int) -> str:
    for name, addr in cfg.program.symbols.items():
        if addr == entry:
            return name
    return f"fn_{entry:#x}"


def build_call_graph(cfg: ControlFlowGraph) -> CallGraph:
    """Build the call graph of *cfg*.

    An indirect call (``JALR``) over-approximates to every known entry
    — the root alone when the program defines no other function.
    """
    program = cfg.program
    root = cfg.blocks[cfg.entry].start

    entries: Set[int] = {root}
    for block in cfg.blocks:
        for instr in block.instrs:
            if instr.op is Op.JAL:
                target = direct_target(instr)
                if target is not None and program.contains_pc(target):
                    entries.add(target)

    ordered = sorted(entries)
    ends = {entry: (ordered[i + 1] if i + 1 < len(ordered)
                    else program.text_end)
            for i, entry in enumerate(ordered)}

    def containing(pc: int) -> Optional[int]:
        index = bisect_right(ordered, pc) - 1
        return ordered[index] if index >= 0 else None

    all_entries = tuple(ordered)
    functions: Dict[int, FunctionInfo] = {}
    edges: Set[Tuple[int, int]] = set()
    for entry in ordered:
        end = ends[entry]
        blocks = tuple(b.index for b in cfg.blocks
                       if entry <= b.start < end)
        call_sites: List[CallSite] = []
        returns: List[int] = []
        fall_off: List[int] = []
        for index in blocks:
            block = cfg.blocks[index]
            for instr in block.instrs:
                pc = instr.pc or 0
                if instr.op is Op.JAL:
                    target = direct_target(instr)
                    callees = ((target,) if target is not None
                               and program.contains_pc(target) else ())
                    call_sites.append(CallSite(pc, entry, callees, True))
                elif instr.op is Op.JALR:
                    call_sites.append(CallSite(pc, entry, all_entries,
                                               False))
            last = block.last
            last_pc = last.pc or 0
            if last.is_return():
                returns.append(last_pc)
            elif last.op is Op.JR:
                # Jump table: CFG successors landing outside the extent
                # are (over-approximate) tail transfers to the owning
                # function.
                for succ in block.succs:
                    target = cfg.blocks[succ].start
                    if not entry <= target < end:
                        owner = containing(target)
                        if owner is not None and owner != entry:
                            edges.add((entry, owner))
            elif (not last.is_ctrl() or last.is_cond_branch()
                  or last.op in (Op.SYSCALL, Op.JAL, Op.JALR)):
                # The block can fall through; past the extent end that
                # is control sliding into the next function.
                if last_pc + 4 == end and end < program.text_end:
                    fall_off.append(last_pc)
                    nxt = containing(end)
                    if nxt is not None:
                        edges.add((entry, nxt))
            if last.op is Op.J or last.is_cond_branch():
                target = direct_target(last)
                if target is not None and program.contains_pc(target) \
                        and not entry <= target < end:
                    owner = containing(target)
                    if owner is not None and owner != entry:
                        edges.add((entry, owner))   # direct tail call
        for site in call_sites:
            for callee in site.callees:
                owner = containing(callee)
                if owner is not None:
                    edges.add((entry, owner))
        functions[entry] = FunctionInfo(
            entry=entry, name=_function_name(cfg, entry), end=end,
            blocks=blocks, call_sites=tuple(call_sites),
            returns=tuple(returns), fall_off=tuple(fall_off))

    return CallGraph(cfg, functions, root, edges)


__all__ = ["CallGraph", "CallSite", "FunctionInfo", "build_call_graph"]
