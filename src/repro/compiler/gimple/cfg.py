"""Control-flow graph facts over GIMPLE functions.

GCC must *reconstruct* control flow from sequential code before it can
optimize (paper §IV.A: "GCC has to build the control flow graph of this
sequential form"); MGCC does the same from its block terminators, once
per function: :class:`~.ir.GimpleFunction` then keeps its predecessor
lists current through its edge helpers, and memoizes reachability (here)
and dominators (:mod:`.dom`) until an edge changes.  The model level
never needs this step — the state graph *is* the CFG — which is exactly
the asymmetry the paper exploits.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from .ir import GimpleFunction, Phi

__all__ = ["reachable_blocks", "remove_unreachable_blocks",
           "reverse_postorder"]


def _reachable(fn: GimpleFunction) -> FrozenSet[str]:
    seen: Set[str] = set()
    stack = [fn.entry]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        stack.extend(fn.blocks[label].terminator.successors())
    return frozenset(seen)


def reachable_blocks(fn: GimpleFunction) -> FrozenSet[str]:
    """Labels reachable from the entry block (memoized per CFG state)."""
    return fn.cfg_fact(_reachable)


def remove_unreachable_blocks(fn: GimpleFunction) -> int:
    """Delete CFG-unreachable blocks; returns how many were removed.

    Reachability is memoized per CFG state, so a sweep with no edge
    changed since the last one walks nothing.  Phi inputs from removed
    predecessors are pruned.  Note what this pass can and cannot do: a
    ``case`` arm of a runtime switch is *reachable* (the switch
    terminator targets it), so the generated code of the paper's
    unreachable state S2 survives — the compiler-level analogue of the
    model-level reachability analysis sees nothing to remove.
    """
    live = reachable_blocks(fn)
    if len(live) == len(fn.blocks):
        return 0
    doomed = [label for label in fn.blocks if label not in live]
    for label in doomed:
        fn.delete_block(label)
    gone = set(doomed)
    for block in fn.blocks.values():
        for i, instr in enumerate(block.instrs):
            if isinstance(instr, Phi):
                block.instrs[i] = Phi(
                    instr.dst,
                    {lbl: val for lbl, val in instr.incoming.items()
                     if lbl not in gone})
    return len(doomed)


def reverse_postorder(fn: GimpleFunction) -> List[str]:
    """Labels in reverse postorder (good iteration order for dataflow)."""
    seen: Set[str] = set()
    order: List[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(fn.blocks[label].terminator.successors()))]
        seen.add(label)
        while stack:
            current, succ_iter = stack[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(
                        (succ, iter(fn.blocks[succ].terminator.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(fn.entry)
    order.reverse()
    return order
