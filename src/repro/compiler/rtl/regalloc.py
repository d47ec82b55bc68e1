"""Linear-scan register allocation, parameterized by target.

Implements Poletto & Sarkar's linear scan over the RTL stream:

1. rebuild block structure from labels/branches and run a backward
   liveness dataflow so intervals are correct across loops;
2. build one conservative live interval per virtual register (covering
   every program point where the register is live);
3. scan intervals in start order, assigning the target's callee-saved
   ``s`` registers; when none is free, spill the interval that ends last;
4. rewrite the stream — spilled registers get frame slots, with the
   target's two scratch registers as reload temporaries.

The allocator records which physical registers a function used so the
driver can emit exactly the push/pop prologue the function needs (the
size accounting the experiments depend on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple, Union

from ..target.description import TargetDescription
from ..target.registry import resolve_target
from .ir import RInstr, RTLFunction, is_branch

__all__ = ["allocate_registers", "AllocationError", "live_intervals"]


class AllocationError(Exception):
    """Raised when the allocator cannot produce a valid assignment."""


def _is_virtual(reg: str) -> bool:
    return reg.startswith("v")


@dataclass
class _Block:
    start: int  # index of first instruction (the label)
    end: int    # index one past the last instruction
    succs: List[int]
    uses: Set[str]
    defs: Set[str]
    live_in: Set[str]
    live_out: Set[str]


def _build_blocks(instrs: List[RInstr]) -> List[_Block]:
    """Partition the linear stream into blocks and wire the CFG."""
    # Leaders: index 0, every label, and every instruction after a branch.
    leaders = {0}
    label_at: Dict[str, int] = {}
    for i, instr in enumerate(instrs):
        if instr.op == "label":
            leaders.add(i)
            label_at[instr.target] = i
        elif is_branch(instr) and i + 1 < len(instrs):
            leaders.add(i + 1)
    ordered = sorted(leaders)
    index_of = {start: n for n, start in enumerate(ordered)}
    blocks: List[_Block] = []
    for n, start in enumerate(ordered):
        end = ordered[n + 1] if n + 1 < len(ordered) else len(instrs)
        blocks.append(_Block(start, end, [], set(), set(), set(), set()))
    # Successors + local use/def sets.
    for n, block in enumerate(blocks):
        seen_defs: Set[str] = set()
        falls_through = True
        for i in range(block.start, block.end):
            instr = instrs[i]
            for use in instr.uses:
                if _is_virtual(use) and use not in seen_defs:
                    block.uses.add(use)
            for dst in instr.defs:
                if _is_virtual(dst):
                    seen_defs.add(dst)
                    block.defs.add(dst)
            if instr.op in ("b", "ret"):
                falls_through = False
            elif is_branch(instr):
                falls_through = i + 1 >= block.end or True
            if instr.target is not None and instr.op != "label" and \
                    instr.target in label_at:
                succ_start = label_at[instr.target]
                block.succs.append(index_of[_leader_of(ordered, succ_start)])
            if instr.table:
                for tgt in instr.table:
                    if tgt in label_at:
                        block.succs.append(
                            index_of[_leader_of(ordered, label_at[tgt])])
        last = instrs[block.end - 1] if block.end > block.start else None
        if falls_through and (last is None or last.op not in ("b", "ret")):
            if n + 1 < len(blocks):
                block.succs.append(n + 1)
    return blocks


def _leader_of(ordered: List[int], index: int) -> int:
    """The leader (block start) containing instruction *index*."""
    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ordered[mid] <= index:
            lo = mid
        else:
            hi = mid - 1
    return ordered[lo]


def _liveness(blocks: List[_Block]) -> None:
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            live_out: Set[str] = set()
            for succ in block.succs:
                live_out |= blocks[succ].live_in
            live_in = block.uses | (live_out - block.defs)
            if live_out != block.live_out or live_in != block.live_in:
                block.live_out = live_out
                block.live_in = live_in
                changed = True


def live_intervals(rtl: RTLFunction) -> Dict[str, Tuple[int, int]]:
    """Conservative live interval [start, end] per virtual register."""
    blocks = _build_blocks(rtl.instrs)
    _liveness(blocks)
    intervals: Dict[str, Tuple[int, int]] = {}

    def extend(reg: str, point: int) -> None:
        if reg in intervals:
            lo, hi = intervals[reg]
            intervals[reg] = (min(lo, point), max(hi, point))
        else:
            intervals[reg] = (point, point)

    for block in blocks:
        for reg in block.live_in:
            extend(reg, block.start)
        for reg in block.live_out:
            extend(reg, block.end - 1 if block.end > block.start
                   else block.start)
        for i in range(block.start, block.end):
            instr = rtl.instrs[i]
            for reg in instr.defs:
                if _is_virtual(reg):
                    extend(reg, i)
            for reg in instr.uses:
                if _is_virtual(reg):
                    extend(reg, i)
    return intervals


def allocate_registers(rtl: RTLFunction,
                       target: Union[TargetDescription, str, None] = None,
                       ) -> RTLFunction:
    """Run linear scan; returns *rtl* rewritten onto physical registers.

    The register file comes from *target* (default: the function's own
    target, falling back to the registry default)."""
    tgt = resolve_target(target) if target is not None else rtl.target_desc
    rtl.target = tgt
    intervals = live_intervals(rtl)
    order = sorted(intervals.items(), key=lambda kv: (kv[1][0], kv[1][1]))

    free: List[str] = list(tgt.allocatable_regs)
    active: List[Tuple[int, str, str]] = []  # (end, vreg, phys)
    assignment: Dict[str, str] = {}
    spilled: Dict[str, int] = {}

    def expire(start: int) -> None:
        nonlocal active
        keep = []
        for end, vreg, phys in active:
            if end < start:
                free.append(phys)
            else:
                keep.append((end, vreg, phys))
        active = keep

    for vreg, (start, end) in order:
        expire(start)
        if free:
            # Prefer the lowest-numbered free register so short-lived
            # values reuse the same few registers (fewer saved regs =>
            # smaller prologues).
            free.sort()
            phys = free.pop(0)
            assignment[vreg] = phys
            active.append((end, vreg, phys))
            active.sort()
        else:
            # Spill the active interval with the furthest end point if it
            # ends later than the current one; otherwise spill current.
            furthest_end, furthest_vreg, furthest_phys = active[-1]
            if furthest_end > end:
                assignment[vreg] = furthest_phys
                spilled[furthest_vreg] = len(spilled)
                del assignment[furthest_vreg]
                active[-1] = (end, vreg, furthest_phys)
                active.sort()
            else:
                spilled[vreg] = len(spilled)

    rtl.frame_slots = len(spilled)

    scratch0, scratch1 = tgt.scratch_regs
    slot_bytes = tgt.word_size
    new_instrs: List[RInstr] = []
    for instr in rtl.instrs:
        if instr.op == "label":
            new_instrs.append(instr)
            continue
        reloads: List[RInstr] = []
        stores: List[RInstr] = []
        scratch_pool = [scratch0, scratch1]
        local_map: Dict[str, str] = {}

        def map_reg(reg: str, for_def: bool) -> str:
            if not _is_virtual(reg):
                return reg
            if reg in assignment:
                return assignment[reg]
            if reg not in spilled:
                # Defined but never used (dead def that survived): give it
                # a scratch register, no store needed for correctness but
                # keep one for uniformity.
                if reg not in local_map:
                    if not scratch_pool:
                        raise AllocationError(
                            f"{rtl.name}: out of scratch registers")
                    local_map[reg] = scratch_pool.pop(0)
                return local_map[reg]
            slot = spilled[reg]
            if reg not in local_map:
                if scratch_pool:
                    local_map[reg] = scratch_pool.pop(0)
                elif for_def:
                    # A def may reuse a use's scratch: the instruction
                    # reads its sources before writing its destination.
                    local_map[reg] = scratch0
                else:
                    raise AllocationError(
                        f"{rtl.name}: out of scratch registers for spills")
                if not for_def:
                    reloads.append(RInstr("lw", defs=(local_map[reg],),
                                          uses=("sp",),
                                          imm=slot_bytes * slot,
                                          comment=f"reload {reg}"))
            if for_def:
                stores.append(RInstr("sw", uses=(local_map[reg], "sp"),
                                     imm=slot_bytes * slot,
                                     comment=f"spill {reg}"))
            return local_map[reg]

        new_uses = tuple(map_reg(r, for_def=False) for r in instr.uses)
        new_defs = tuple(map_reg(r, for_def=True) for r in instr.defs)
        new_instrs.extend(reloads)
        new_instrs.append(RInstr(instr.op, defs=new_defs, uses=new_uses,
                                 imm=instr.imm, symbol=instr.symbol,
                                 target=instr.target, table=instr.table,
                                 comment=instr.comment))
        new_instrs.extend(stores)
    rtl.instrs = new_instrs
    # Saved registers: exactly the callee-saved registers the final
    # stream touches (scratch registers are the caller's problem).
    used = {reg for instr in new_instrs
            for reg in tuple(instr.defs) + tuple(instr.uses)
            if reg in tgt.allocatable_regs}
    rtl.saved_regs = tuple(sorted(used))
    return rtl
