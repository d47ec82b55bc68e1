"""SSA construction and destruction.

Construction is the classic Cytron et al. algorithm — the paper's
reference [6] and the basis of GCC's Tree-SSA ("this new representation
is called SSA because it is based on the Static Single Assignment form"):
phi placement at iterated dominance frontiers, then a dominator-tree walk
renaming every register so each SSA name has exactly one definition.

Destruction replaces phis with parallel copies in predecessors, splitting
critical edges first so the copies cannot clobber each other's sources.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .cfg import remove_unreachable_blocks
from .dom import DomInfo, dominators
from .ir import GimpleFunction, Instr, Jump, Move, Operand, Phi, Reg, copy_node

__all__ = ["to_ssa", "from_ssa", "verify_ssa", "SSAError"]


class SSAError(Exception):
    """Raised when SSA invariants are violated."""


def _definitions(fn: GimpleFunction) -> Dict[str, Set[str]]:
    """Map register base name -> labels of blocks defining it."""
    defs: Dict[str, Set[str]] = {}
    for param in fn.params:
        defs.setdefault(param.name, set()).add(fn.entry)
    for label, block in fn.blocks.items():
        for instr in block.instrs:
            if instr.dst is not None:
                defs.setdefault(instr.dst.name, set()).add(label)
    return defs


def to_ssa(fn: GimpleFunction) -> DomInfo:
    """Convert *fn* to SSA form in place; returns the dominator info."""
    remove_unreachable_blocks(fn)
    dom = dominators(fn)
    defs = _definitions(fn)

    # -- phase 1: phi placement at iterated dominance frontiers ---------
    phi_vars: Dict[str, Set[str]] = {label: set() for label in fn.blocks}
    for var, def_blocks in defs.items():
        if len(def_blocks) <= 1:
            continue  # single-def vars never need phis
        work = list(def_blocks)
        placed: Set[str] = set()
        while work:
            block_label = work.pop()
            for df in dom.frontier.get(block_label, ()):
                if df in placed:
                    continue
                placed.add(df)
                phi_vars[df].add(var)
                if df not in def_blocks:
                    work.append(df)
    for label, variables in phi_vars.items():
        block = fn.blocks[label]
        for var in sorted(variables):
            block.instrs.insert(0, Phi(Reg(var), {}))

    # -- phase 2: renaming along the dominator tree ---------------------
    counter: Dict[str, int] = {}
    stacks: Dict[str, List[Reg]] = {}

    def fresh(name: str) -> Reg:
        counter[name] = counter.get(name, 0) + 1
        reg = Reg(name, counter[name])
        stacks.setdefault(name, []).append(reg)
        return reg

    def current(name: str) -> Optional[Reg]:
        stack = stacks.get(name)
        return stack[-1] if stack else None

    def rewrite_operand(op: Operand) -> Operand:
        if isinstance(op, Reg):
            cur = current(op.name)
            if cur is None:
                raise SSAError(f"use of undefined register %{op.name} "
                               f"in {fn.name}")
            return cur
        return op

    new_params = [fresh(p.name) for p in fn.params]

    # Preorder walk of the dominator tree on an explicit stack.  An
    # entry is a block label to rename, or the list of names a renamed
    # block pushed, popped once its whole subtree is done.  (A
    # self-recursive nested function would be a reference cycle that
    # keeps this frame, and the function, alive until the collector
    # runs.)
    work: List[object] = [fn.entry]
    while work:
        label = work.pop()
        if isinstance(label, list):
            for name in label:
                stacks[name].pop()
            continue
        block = fn.blocks[label]
        pushed: List[str] = []
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            if isinstance(instr, Phi):
                new_dst = fresh(instr.dst.name)
                pushed.append(instr.dst.name)
                new_instrs.append(Phi(new_dst, dict(instr.incoming)))
                continue
            renamed = _rewrite_instr_uses(instr, rewrite_operand)
            if renamed.dst is not None:
                new_dst = fresh(renamed.dst.name)
                pushed.append(renamed.dst.name)
                renamed = _with_dst(renamed, new_dst)
            new_instrs.append(renamed)
        block.instrs = new_instrs
        fn.set_terminator(block, _rewrite_term_uses(block.terminator,
                                                    rewrite_operand))
        # Fill phi inputs of successors.
        for succ in block.terminator.successors():
            for phi in fn.blocks[succ].phis():
                cur = current(phi.dst.name)
                if cur is not None:
                    phi.incoming[label] = cur
                # else: variable not defined on this path; leave absent
                # (the phi value is undefined along it, never read).
        work.append(pushed)
        work.extend(reversed(dom.children.get(label, ())))

    fn.params = new_params
    return dom


def _rewrite_instr_uses(instr: Instr, rewrite) -> Instr:
    mapping: Dict[Reg, Operand] = {}
    for use in instr.uses():
        mapping[use] = rewrite(use)
    return instr.replace_uses(mapping) if mapping else instr


def _rewrite_term_uses(term, rewrite):
    mapping: Dict[Reg, Operand] = {}
    for use in term.uses():
        mapping[use] = rewrite(use)
    return term.replace_uses(mapping) if mapping else term


def _with_dst(instr: Instr, dst: Reg) -> Instr:
    clone = copy_node(instr)
    clone.dst = dst
    return clone


def verify_ssa(fn: GimpleFunction) -> None:
    """Check the single-definition invariant and phi well-formedness."""
    defined: Set[Tuple[str, int]] = set()
    for param in fn.params:
        key = (param.name, param.version)
        if key in defined:
            raise SSAError(f"{fn.name}: duplicate definition of {param}")
        defined.add(key)
    for block in fn.blocks.values():
        for instr in block.instrs:
            if instr.dst is None:
                continue
            key = (instr.dst.name, instr.dst.version)
            if key in defined:
                raise SSAError(
                    f"{fn.name}: duplicate definition of {instr.dst}")
            defined.add(key)
    for label, block in fn.blocks.items():
        for phi in block.phis():
            for pred_label in phi.incoming:
                if pred_label not in fn.preds(label):
                    raise SSAError(
                        f"{fn.name}: phi in {label} names non-predecessor "
                        f"{pred_label}")


def _split_critical_edges(fn: GimpleFunction) -> None:
    """Insert empty blocks on edges from multi-successor blocks to
    multi-predecessor blocks (needed for safe phi elimination)."""
    for label in list(fn.blocks):
        block = fn.blocks[label]
        succs = block.terminator.successors()
        if len(succs) <= 1:
            continue
        retarget: Dict[str, str] = {}
        # dict.fromkeys, not set: dedup must preserve successor order,
        # or the crit-block numbering (and so every downstream label,
        # symbol and byte of the module) would vary with the process's
        # string-hash seed.
        for succ in dict.fromkeys(succs):
            if len(fn.preds(succ)) <= 1:
                continue
            mid = fn.new_block("crit")
            fn.set_terminator(mid, Jump(succ))
            retarget[succ] = mid.label
            # Phi entries for the split edge now come from the new block.
            for phi in fn.blocks[succ].phis():
                if label in phi.incoming:
                    phi.incoming[mid.label] = phi.incoming.pop(label)
        if retarget:
            fn.set_terminator(block, block.terminator.retarget(retarget))


def from_ssa(fn: GimpleFunction) -> None:
    """Destroy SSA form: phis become copies in predecessor blocks.

    Uses fresh temporaries per phi destination so that parallel phis
    reading each other's destinations stay correct (lost-copy/swap
    problems).
    """
    _split_critical_edges(fn)
    # Insert copies: for each phi %d = phi [p1: v1, ...] create a fresh
    # temp %d_c; in each predecessor append %d_c = v_i; after the phis,
    # %d = %d_c.
    for label in list(fn.blocks):
        block = fn.blocks[label]
        phis = block.phis()
        if not phis:
            continue
        replacements: List[Instr] = []
        for phi in phis:
            temp = fn.new_reg(f"{phi.dst.name}c")
            for pred_label, value in phi.incoming.items():
                pred = fn.blocks[pred_label]
                pred.instrs.append(Move(temp, value))
            replacements.append(Move(phi.dst, temp))
        block.instrs = replacements + block.non_phis()
    # Drop SSA versions: each (name, version) pair becomes a plain unique
    # register name.
    rename: Dict[Reg, Reg] = {}

    def plain(reg: Reg) -> Reg:
        if reg.version == 0:
            return reg
        if reg not in rename:
            rename[reg] = Reg(f"{reg.name}_{reg.version}")
        return rename[reg]

    fn.params = [plain(p) for p in fn.params]
    for block in fn.blocks.values():
        new_instrs = []
        for instr in block.instrs:
            mapping = {use: plain(use) for use in instr.uses()
                       if use.version}
            instr = instr.replace_uses(mapping)
            if instr.dst is not None and instr.dst.version:
                instr = _with_dst(instr, plain(instr.dst))
            new_instrs.append(instr)
        block.instrs = new_instrs
        term = block.terminator
        mapping = {use: plain(use) for use in term.uses() if use.version}
        if mapping:
            fn.set_terminator(block, term.replace_uses(mapping))
