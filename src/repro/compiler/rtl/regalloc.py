"""Linear-scan register allocation, parameterized by target.

Implements Poletto & Sarkar's linear scan over the RTL stream:

1. one pass over the stream numbers the virtual registers by first
   appearance, splits the stream into blocks and records each block's
   upward-exposed uses and its definitions as int bitsets (bit *n* is
   the *n*-th register to appear); a backward dataflow over those
   bitsets gives each block's live-in and live-out registers, so
   intervals are correct across loops;
2. build one conservative live interval per virtual register: its first
   and last occurrence, widened to the start of every block it is live
   into and the end of every block it is live out of;
3. scan intervals in start order (ties: first appearance), assigning the
   target's callee-saved ``s`` registers, lowest free name first; when
   none is free, spill the interval that ends last;
4. rename, in place, the registers of every instruction that names a
   virtual register; spilled registers get frame slots, with the
   target's two scratch registers as reload temporaries around a new
   copy of each instruction that names one; every other instruction
   stays as it is.

The allocator records which physical registers a function used so the
driver can emit exactly the push/pop prologue the function needs (the
size accounting the experiments depend on).
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Set, Tuple, Union

from ..target.description import TargetDescription
from ..target.registry import resolve_target
from .ir import BRANCH_OPS, RInstr, RTLFunction

__all__ = ["allocate_registers", "AllocationError", "live_intervals"]


class AllocationError(Exception):
    """Raised when the allocator cannot produce a valid assignment."""


class _Scan:
    """One pass over a stream, then liveness: the virtual registers in
    order of first appearance (``regs``) with each one's live interval
    (``starts``, ``ends``), the physical registers the stream already
    names, and every instruction that names a virtual register (its
    index in ``named``, the bitset of those it names in ``masks``)."""

    def __init__(self, instrs: List[RInstr]) -> None:
        number: Dict[str, int] = {}
        self.regs: List[str] = []
        first: List[int] = []
        last: List[int] = []
        self.physical: Set[str] = set()
        # The index of every instruction that names a virtual register,
        # and the bitset of those it names.
        self.named: List[int] = []
        self.masks: List[int] = []
        leaders: List[int] = []
        use_masks: List[int] = []
        def_masks: List[int] = []
        targets: List[List[str]] = []
        label_block: Dict[str, int] = {}

        start, use_mask, def_mask, block_targets = 0, 0, 0, []
        after_branch = False
        for i, instr in enumerate(instrs):
            op = instr.op
            # Leaders: every label and every instruction after a branch.
            if (after_branch or op == "label") and i > start:
                leaders.append(start)
                use_masks.append(use_mask)
                def_masks.append(def_mask)
                targets.append(block_targets)
                start, use_mask, def_mask, block_targets = i, 0, 0, []
            after_branch = op in BRANCH_OPS
            if op == "label":
                label_block[instr.target] = len(leaders)
                continue
            mask = 0
            for reg in instr.uses:
                if reg[0] != "v":
                    self.physical.add(reg)
                    continue
                n = number.get(reg)
                if n is None:
                    n = number[reg] = len(first)
                    self.regs.append(reg)
                    first.append(i)
                    last.append(i)
                else:
                    last[n] = i
                bit = 1 << n
                mask |= bit
                if not def_mask & bit:
                    use_mask |= bit
            for reg in instr.defs:
                if reg[0] != "v":
                    self.physical.add(reg)
                    continue
                n = number.get(reg)
                if n is None:
                    n = number[reg] = len(first)
                    self.regs.append(reg)
                    first.append(i)
                    last.append(i)
                else:
                    last[n] = i
                bit = 1 << n
                mask |= bit
                def_mask |= bit
            if mask:
                self.named.append(i)
                self.masks.append(mask)
            if instr.target is not None:
                block_targets.append(instr.target)
            if instr.table:
                block_targets.extend(instr.table)
        if instrs:
            leaders.append(start)
            use_masks.append(use_mask)
            def_masks.append(def_mask)
            targets.append(block_targets)

        count = len(leaders)
        block_ends = leaders[1:] + [len(instrs)]
        succs: List[List[int]] = []
        for b in range(count):
            block_succs = [label_block[t] for t in targets[b]
                           if t in label_block]
            last_op = instrs[block_ends[b] - 1].op
            if last_op not in ("b", "ret") and b + 1 < count:
                block_succs.append(b + 1)
            succs.append(block_succs)

        # Liveness to the least fixpoint: live_in = use | (live_out & ~def).
        live_in = list(use_masks)
        live_out = [0] * count
        changed = True
        while changed:
            changed = False
            for b in range(count - 1, -1, -1):
                out = 0
                for s in succs[b]:
                    out |= live_in[s]
                if out != live_out[b]:
                    live_out[b] = out
                    live_in[b] = use_masks[b] | (out & ~def_masks[b])
                    changed = True

        # Widen each register's [first, last] to the start of every
        # block it is live into and the end of every block it is live
        # out of.
        points = leaders + [end - 1 for end in block_ends]
        for point, mask in zip(points, live_in + live_out):
            while mask:
                low = mask & -mask
                n = low.bit_length() - 1
                mask ^= low
                if point < first[n]:
                    first[n] = point
                if point > last[n]:
                    last[n] = point
        self.starts = first
        self.ends = last


def live_intervals(rtl: RTLFunction) -> Dict[str, Tuple[int, int]]:
    """Conservative live interval [start, end] per virtual register, in
    order of first appearance."""
    scan = _Scan(rtl.instrs)
    return {reg: (start, end) for reg, start, end
            in zip(scan.regs, scan.starts, scan.ends)}


def allocate_registers(rtl: RTLFunction,
                       target: Union[TargetDescription, str, None] = None,
                       ) -> RTLFunction:
    """Run linear scan; returns *rtl* rewritten onto physical registers
    (its instructions are renamed in place).

    The register file comes from *target* (default: the function's own
    target, falling back to the registry default)."""
    tgt = resolve_target(target) if target is not None else rtl.target_desc
    rtl.target = tgt
    instrs = rtl.instrs
    scan = _Scan(instrs)
    regs = scan.regs

    free: List[str] = sorted(tgt.allocatable_regs)
    active: List[Tuple[int, str, str]] = []  # (end, vreg, phys), sorted
    assignment: Dict[str, str] = {}
    spilled: Dict[str, int] = {}
    for start, end, n in sorted(zip(scan.starts, scan.ends,
                                    range(len(regs)))):
        vreg = regs[n]
        while active and active[0][0] < start:
            insort(free, active.pop(0)[2])
        if free:
            # The lowest-named free register, so short-lived values
            # reuse the same few registers (fewer saved regs => smaller
            # prologues).
            phys = free.pop(0)
            assignment[vreg] = phys
            insort(active, (end, vreg, phys))
        else:
            # Spill the active interval with the furthest end point if it
            # ends later than the current one; otherwise spill current.
            furthest_end, furthest_vreg, furthest_phys = active[-1]
            if furthest_end > end:
                assignment[vreg] = furthest_phys
                spilled[furthest_vreg] = len(spilled)
                del assignment[furthest_vreg]
                active.pop()
                insort(active, (end, vreg, furthest_phys))
            else:
                spilled[vreg] = len(spilled)

    rtl.frame_slots = len(spilled)
    # Saved registers: exactly the callee-saved registers the final
    # stream touches (scratch registers are the caller's problem).
    used = set(assignment.values())
    used.update(scan.physical.intersection(tgt.allocatable_regs))
    rtl.saved_regs = tuple(sorted(used))

    # Rename in place every instruction that names a virtual register
    # and no spilled one; splice the others with reloads and stores.
    get = assignment.get
    spilled_mask = 0
    for n, reg in enumerate(regs):
        if reg in spilled:
            spilled_mask |= 1 << n
    spill_at: List[int] = []
    for i, mask in zip(scan.named, scan.masks):
        if mask & spilled_mask:
            spill_at.append(i)
        else:
            instr = instrs[i]
            instr.defs = tuple([get(r, r) for r in instr.defs])
            instr.uses = tuple([get(r, r) for r in instr.uses])
    if spill_at:
        new_instrs: List[RInstr] = []
        done = 0
        for i in spill_at:
            new_instrs.extend(instrs[done:i])
            done = i + 1
            _rewrite_spilled(rtl.name, instrs[i], assignment, spilled, tgt,
                             new_instrs)
        new_instrs.extend(instrs[done:])
        rtl.instrs = new_instrs
    return rtl


def _rewrite_spilled(name: str, instr: RInstr, assignment: Dict[str, str],
                     spilled: Dict[str, int], tgt: TargetDescription,
                     out: List[RInstr]) -> None:
    """Append *instr* to *out* with its spilled registers in scratch
    registers: a reload before it per spilled use, a store after it per
    spilled def."""
    scratch0 = tgt.scratch_regs[0]
    pool = list(tgt.scratch_regs)
    local: Dict[str, str] = {}
    slot_bytes = tgt.word_size
    new_uses: List[str] = []
    for reg in instr.uses:
        slot = spilled.get(reg)
        if slot is None:
            new_uses.append(assignment.get(reg, reg))
            continue
        scratch = local.get(reg)
        if scratch is None:
            if not pool:
                raise AllocationError(
                    f"{name}: out of scratch registers for spills")
            scratch = local[reg] = pool.pop(0)
            out.append(RInstr("lw", defs=(scratch,), uses=("sp",),
                              imm=slot_bytes * slot,
                              comment=f"reload {reg}"))
        new_uses.append(scratch)
    stores: List[RInstr] = []
    new_defs: List[str] = []
    for reg in instr.defs:
        slot = spilled.get(reg)
        if slot is None:
            new_defs.append(assignment.get(reg, reg))
            continue
        scratch = local.get(reg)
        if scratch is None:
            # A def may reuse a use's scratch: the instruction reads its
            # sources before writing its destination.
            scratch = local[reg] = pool.pop(0) if pool else scratch0
        stores.append(RInstr("sw", uses=(scratch, "sp"),
                             imm=slot_bytes * slot, comment=f"spill {reg}"))
        new_defs.append(scratch)
    out.append(RInstr(instr.op, defs=tuple(new_defs), uses=tuple(new_uses),
                      imm=instr.imm, symbol=instr.symbol,
                      target=instr.target, table=instr.table,
                      comment=instr.comment))
    out.extend(stores)
