"""Copy propagation (SSA).

Replaces uses of ``%x`` with ``%y`` (or a constant) when ``%x = %y`` is a
plain move — the SSA single-definition property makes this a one-pass
substitution with union-find-style chasing of copy chains.  The moves
themselves become dead and fall to DCE.
"""

from __future__ import annotations

from typing import Dict

from ..gimple.ir import GimpleFunction, IRError, Move, Operand, Phi, Reg

__all__ = ["run_copyprop"]


def run_copyprop(fn: GimpleFunction) -> int:
    """Propagate SSA copies; returns number of rewritten uses."""
    copy_of: Dict[Reg, Operand] = {}
    for block in fn.blocks.values():
        for instr in block.instrs:
            if isinstance(instr, Move):
                copy_of[instr.dst] = instr.src

    def resolve(op: Operand) -> Operand:
        seen = set()
        while isinstance(op, Reg) and op in copy_of and op not in seen:
            seen.add(op)
            op = copy_of[op]
        return op

    changed = 0
    for block in fn.blocks.values():
        new_instrs = []
        for instr in block.instrs:
            if isinstance(instr, Phi):
                new_incoming = {}
                for label, value in instr.incoming.items():
                    resolved = resolve(value)
                    if resolved != value:
                        changed += 1
                    new_incoming[label] = resolved
                new_instrs.append(Phi(instr.dst, new_incoming))
                continue
            mapping: Dict[Reg, Operand] = {}
            for use in instr.uses():
                resolved = resolve(use)
                if resolved != use:
                    mapping[use] = resolved
            if mapping:
                try:
                    instr = instr.replace_uses(mapping)
                    changed += len(mapping)
                except IRError:
                    pass  # e.g. load base folding to const: keep original
            new_instrs.append(instr)
        block.instrs = new_instrs
        term = block.terminator
        mapping = {use: resolve(use) for use in term.uses()
                   if resolve(use) != use}
        if mapping:
            fn.set_terminator(block, term.replace_uses(mapping))
            changed += len(mapping)
    return changed
