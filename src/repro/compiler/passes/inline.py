"""Function inlining.

A conservative bottom-up inliner in the spirit of GCC's early inliner:
direct calls to *small* functions are replaced by a clone of the callee's
body.  Size thresholds differ per optimization level — ``-Os`` only
inlines when doing so cannot grow the code (callee smaller than the call
overhead), matching GCC's size-optimization policy.

Runs on non-SSA GIMPLE (right after lowering), like GCC's early inliner
runs before the SSA optimizers so they can see through the call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..gimple.ir import (BasicBlock, Call, GimpleFunction, Instr, Jump, Move,
                         Operand, Phi, Program, Reg, Ret, copy_node)

__all__ = ["run_inline", "inline_candidates", "inline_into",
           "InlinePolicy"]


class InlinePolicy:
    """Inlining thresholds (instruction counts of the callee)."""

    def __init__(self, max_callee_size: int = 12,
                 max_caller_growth: int = 400) -> None:
        self.max_callee_size = max_callee_size
        self.max_caller_growth = max_caller_growth

    @classmethod
    def for_speed(cls) -> "InlinePolicy":
        return cls(max_callee_size=12)

    @classmethod
    def for_size(cls) -> "InlinePolicy":
        # Only bodies at most as large as the call sequence they replace.
        return cls(max_callee_size=3, max_caller_growth=64)


def _inlinable(fn: GimpleFunction, policy: InlinePolicy) -> bool:
    if fn.instr_count() > policy.max_callee_size + len(fn.blocks):
        return False
    for block in fn.blocks.values():
        for instr in block.instrs:
            if isinstance(instr, Call) and instr.callee == fn.name:
                return False  # direct recursion
    return True


def _clone_into(caller: GimpleFunction, callee: GimpleFunction,
                args: List[Operand], dst: Optional[Reg],
                cont_label: str) -> str:
    """Clone *callee*'s body into *caller*; returns the cloned entry label."""
    suffix = f"_inl{caller.label_id()}"
    label_map = {label: f"{label}{suffix}" for label in callee.blocks}
    reg_map: Dict[Reg, Reg] = {}

    def remap(reg: Reg) -> Reg:
        if reg not in reg_map:
            reg_map[reg] = Reg(f"{reg.name}{suffix}", reg.version)
        return reg_map[reg]

    # Bind parameters.
    entry_label = label_map[callee.entry]
    binder = BasicBlock(f"bind{suffix}")
    for param, arg in zip(callee.params, args):
        binder.instrs.append(Move(remap(param), arg))
    binder.terminator = Jump(entry_label)
    caller.add_block(binder)

    for label, block in callee.blocks.items():
        clone = BasicBlock(label_map[label])
        for instr in block.instrs:
            mapping = {use: remap(use) for use in instr.uses()}
            if isinstance(instr, Phi):
                new_instr: Instr = Phi(
                    remap(instr.dst),
                    {label_map[l]: (remap(v) if isinstance(v, Reg) else v)
                     for l, v in instr.incoming.items()})
            else:
                new_instr = instr.replace_uses(mapping)
                if new_instr is instr:
                    new_instr = copy_node(instr)
                if new_instr.dst is not None:
                    new_instr.dst = remap(new_instr.dst)
            clone.instrs.append(new_instr)
        term = block.terminator
        if isinstance(term, Ret):
            if dst is not None and term.value is not None:
                value = (remap(term.value) if isinstance(term.value, Reg)
                         else term.value)
                clone.instrs.append(Move(dst, value))
            clone.terminator = Jump(cont_label)
        else:
            mapping = {use: remap(use) for use in term.uses()}
            term = term.replace_uses(mapping) if mapping else term
            clone.terminator = term.retarget(label_map)
        caller.add_block(clone)
    return binder.label


def inline_candidates(functions: Iterable[GimpleFunction],
                      policy: InlinePolicy) -> Dict[str, GimpleFunction]:
    """The functions among *functions* small enough to inline, by name."""
    return {fn.name: fn for fn in functions if _inlinable(fn, policy)}


def inline_into(caller: GimpleFunction,
                candidates: Dict[str, GimpleFunction],
                policy: InlinePolicy) -> int:
    """Inline eligible direct calls to *candidates* into *caller*, which
    is rewritten in place; returns the number of call sites inlined.
    Callee bodies are read as they are now, so inlining into callers in
    program order inlines each callee with its own calls already
    inlined when it comes earlier, and as written when it comes later."""
    inlined = 0
    budget = policy.max_caller_growth
    again = True
    while again and budget > 0:
        again = False
        for label in list(caller.blocks):
            block = caller.blocks[label]
            for i, instr in enumerate(block.instrs):
                if not isinstance(instr, Call):
                    continue
                callee = candidates.get(instr.callee)
                if callee is None or callee is caller:
                    continue
                # Split the block at the call site.
                cont = BasicBlock(f"cont{caller.label_id()}")
                cont.instrs = block.instrs[i + 1:]
                cont.terminator = block.terminator
                caller.add_block(cont)
                # Phis in successors must now name the continuation.
                for succ in cont.terminator.successors():
                    for phi in caller.blocks[succ].phis():
                        if label in phi.incoming:
                            phi.incoming[cont.label] = \
                                phi.incoming.pop(label)
                block.instrs = block.instrs[:i]
                entry = _clone_into(caller, callee, list(instr.args),
                                    instr.dst, cont.label)
                caller.set_terminator(block, Jump(entry))
                inlined += 1
                budget -= callee.instr_count()
                again = True
                break
            if again:
                break
    return inlined


def run_inline(program: Program, policy: InlinePolicy) -> int:
    """Inline eligible direct calls across *program*, caller by caller
    in program order; returns the number of call sites inlined."""
    candidates = inline_candidates(program.functions.values(), policy)
    return sum(inline_into(caller, candidates, policy)
               for caller in program.functions.values())
