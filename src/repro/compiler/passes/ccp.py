"""Conditional constant propagation (SSA).

A worklist implementation of Wegman-Zadeck sparse conditional constant
propagation, the flagship "mathematical" SSA optimization GCC gained with
Tree-SSA (paper §II.C).  Lattice per SSA name: TOP (unknown) -> constant
-> BOTTOM (varying).  Branches on known constants mark only the taken
edge executable, so code guarded by statically-false conditions is never
visited and falls to the unreachable-block pass afterwards.  The
propagation is sparse: SSA def-use chains, built once per run, take a
changed register straight to the instructions and terminators that read
it.

Note the limit the paper leans on: the dispatch value of a generated
state machine is *loaded from memory* (``this->state``), which CCP must
treat as BOTTOM — so every ``case`` arm stays live, including the arm of
a model-level-unreachable state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..gimple.ir import (BinOp, Branch, Call, CallIndirect, Const,
                         GimpleFunction, Instr, IRError, Jump, Load, LoadAddr,
                         LoadGlobal, Move, Operand, Phi, Reg, Ret,
                         SwitchTerm, UnOp)

__all__ = ["run_ccp"]

_TOP = "top"
_BOTTOM = "bottom"
# lattice value: _TOP | int | _BOTTOM


def _meet(a, b):
    if a == _TOP:
        return b
    if b == _TOP:
        return a
    if a == b:
        return a
    return _BOTTOM


def _eval_binop(op: str, a: int, b: int) -> Optional[int]:
    if op in ("/", "%") and b == 0:
        return None  # UB: keep the instruction, let it survive
    if op == "+":
        return _wrap(a + b)
    if op == "-":
        return _wrap(a - b)
    if op == "*":
        return _wrap(a * b)
    if op == "/":
        return _wrap(int(a / b))
    if op == "%":
        return _wrap(a - int(a / b) * b)
    return int({
        "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
        "==": a == b, "!=": a != b,
    }[op])


def _wrap(value: int) -> int:
    """Wrap to signed 32-bit (RT32 arithmetic)."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


def run_ccp(fn: GimpleFunction) -> int:
    """Run SCCP on SSA-form *fn*; folds constant instructions and
    rewrites constant branches/switches to jumps.  Returns the number of
    instructions/terminators changed."""
    lattice: Dict[Reg, object] = {}
    executable: Set[str] = set()
    edge_executable: Set[Tuple[str, str]] = set()

    for param in fn.params:
        lattice[param] = _BOTTOM

    def value_of(op: Operand):
        if isinstance(op, int):
            return op
        return lattice.get(op, _TOP)

    block_work = [fn.entry]
    instr_work: list = []

    # Def-use chains: per register, the instructions (phis included) and
    # the terminators that read it.
    instr_users: Dict[Reg, List[Tuple[str, Instr]]] = {}
    term_users: Dict[Reg, List[str]] = {}
    for label, block in fn.blocks.items():
        for instr in block.instrs:
            for use in instr.uses():
                instr_users.setdefault(use, []).append((label, instr))
        for use in block.terminator.uses():
            term_users.setdefault(use, []).append(label)

    def update(reg: Reg, new_value) -> None:
        old = lattice.get(reg, _TOP)
        merged = _meet(old, new_value)
        if merged != old:
            lattice[reg] = merged
            instr_work.append(reg)

    def visit_instr(label: str, instr: Instr) -> None:
        if isinstance(instr, Const):
            update(instr.dst, instr.value)
        elif isinstance(instr, Move):
            update(instr.dst, value_of(instr.src))
        elif isinstance(instr, BinOp):
            a, b = value_of(instr.a), value_of(instr.b)
            if a == _BOTTOM or b == _BOTTOM:
                update(instr.dst, _BOTTOM)
            elif a == _TOP or b == _TOP:
                pass
            else:
                folded = _eval_binop(instr.op, a, b)
                update(instr.dst, _BOTTOM if folded is None else folded)
        elif isinstance(instr, UnOp):
            a = value_of(instr.a)
            if a == _BOTTOM:
                update(instr.dst, _BOTTOM)
            elif a != _TOP:
                update(instr.dst,
                       _wrap(-a) if instr.op == "-" else int(not a))
        elif isinstance(instr, Phi):
            merged = _TOP
            for pred_label, value in instr.incoming.items():
                if (pred_label, label) in edge_executable:
                    merged = _meet(merged, value_of(value))
            update(instr.dst, merged)
        elif isinstance(instr, (Load, LoadGlobal, LoadAddr, Call,
                                CallIndirect)):
            # Memory contents, addresses and call results are runtime
            # values: BOTTOM.  (Addresses are link-time constants but not
            # foldable integers here.)
            if instr.dst is not None:
                update(instr.dst, _BOTTOM)

    def mark_edge(src: str, dst: str) -> None:
        if (src, dst) in edge_executable:
            return
        edge_executable.add((src, dst))
        if dst not in executable:
            executable.add(dst)
            block_work.append(dst)
        else:
            # Re-evaluate phis of dst: a new incoming edge appeared.
            for phi in fn.blocks[dst].phis():
                visit_instr(dst, phi)

    def visit_terminator(label: str) -> None:
        term = fn.blocks[label].terminator
        if isinstance(term, Jump):
            mark_edge(label, term.target)
        elif isinstance(term, Branch):
            cond = value_of(term.cond)
            if cond == _BOTTOM:
                mark_edge(label, term.if_true)
                mark_edge(label, term.if_false)
            elif cond != _TOP:
                mark_edge(label, term.if_true if cond else term.if_false)
        elif isinstance(term, SwitchTerm):
            value = value_of(term.value)
            if value == _BOTTOM:
                for succ in term.successors():
                    mark_edge(label, succ)
            elif value != _TOP:
                target = term.cases.get(value, term.default)
                mark_edge(label, target)
        elif isinstance(term, Ret):
            pass

    executable.add(fn.entry)
    while block_work or instr_work:
        while instr_work:
            changed_reg = instr_work.pop()
            # Re-visit the users of the changed register that sit in
            # executable blocks; the others are visited whole once their
            # block becomes executable.
            for label, instr in instr_users.get(changed_reg, ()):
                if label in executable:
                    visit_instr(label, instr)
            for label in term_users.get(changed_reg, ()):
                if label in executable:
                    visit_terminator(label)
        while block_work:
            label = block_work.pop()
            block = fn.blocks[label]
            for instr in block.instrs:
                visit_instr(label, instr)
            visit_terminator(label)

    # -- rewrite phase ---------------------------------------------------
    changed = 0
    for label, block in fn.blocks.items():
        new_instrs = []
        for instr in block.instrs:
            value = lattice.get(instr.dst) if instr.dst is not None else None
            if instr.dst is not None and isinstance(value, int) and \
                    not isinstance(instr, Const) and \
                    not instr.has_side_effects:
                new_instrs.append(Const(instr.dst, value))
                changed += 1
            else:
                # Fold constant *uses* into immediates.
                mapping: Dict[Reg, Operand] = {}
                for use in instr.uses():
                    use_value = lattice.get(use, _TOP)
                    if isinstance(use_value, int) and not isinstance(
                            instr, (Load, CallIndirect)):
                        mapping[use] = use_value
                if mapping:
                    # Only a store can refuse: its base must stay a
                    # register, so a store through a constant base is
                    # kept as written.
                    try:
                        instr = instr.replace_uses(mapping)
                        changed += 1
                    except IRError:
                        pass
                new_instrs.append(instr)
        block.instrs = new_instrs
        term = block.terminator
        if isinstance(term, Branch):
            cond = lattice.get(term.cond, _TOP) \
                if isinstance(term.cond, Reg) else term.cond
            if isinstance(cond, int):
                fn.set_terminator(block, Jump(term.if_true if cond
                                              else term.if_false))
                changed += 1
        elif isinstance(term, SwitchTerm):
            value = lattice.get(term.value, _TOP) \
                if isinstance(term.value, Reg) else term.value
            if isinstance(value, int):
                fn.set_terminator(
                    block, Jump(term.cases.get(value, term.default)))
                changed += 1
    return changed
