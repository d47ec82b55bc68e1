"""CFG simplification.

The cleanup pass that runs between the SSA optimizations, mirroring
GCC's ``cleanup_cfg``:

* delete CFG-unreachable blocks (e.g. arms CCP proved dead);
* forward jumps through empty blocks (blocks holding only a ``Jump``);
* merge a block into its unique successor when that successor has a
  unique predecessor (straightening);
* turn branches whose two targets coincide into jumps.

Phi nodes are kept consistent throughout; the pass iterates to a local
fixpoint and returns the number of structural changes.
"""

from __future__ import annotations

from ..gimple.cfg import remove_unreachable_blocks
from ..gimple.ir import Branch, GimpleFunction, Jump, Move, SwitchTerm

__all__ = ["run_simplify_cfg"]


def _forward_empty_blocks(fn: GimpleFunction) -> int:
    """Retarget edges that pass through trivial forwarding blocks.

    A forwarder is an empty block ending in an unconditional jump.  Each
    is handled individually and conservatively:

    * if the jump target has a phi naming the forwarder, the forwarder is
      only bypassed when it has exactly one predecessor and that
      predecessor does not already feed the phi (otherwise two different
      values would collide on one edge);
    * otherwise every predecessor is retargeted past it.
    """
    changed = 0
    for label in list(fn.blocks):
        block = fn.blocks.get(label)
        if block is None or label == fn.entry or block.instrs:
            continue
        if not isinstance(block.terminator, Jump):
            continue
        target_label = block.terminator.target
        if target_label == label:
            continue
        target = fn.blocks[target_label]
        my_preds = fn.preds(label)
        if not my_preds:
            continue  # unreachable; the dedicated pass removes it
        phis_naming_me = [phi for phi in target.phis()
                          if label in phi.incoming]
        if phis_naming_me:
            if len(my_preds) != 1:
                continue
            (pred,) = my_preds
            if any(pred in phi.incoming for phi in target.phis()):
                continue  # value collision on the direct edge
            for phi in phis_naming_me:
                phi.incoming[pred] = phi.incoming.pop(label)
        mapping = {label: target_label}
        # Retargeting empties the live list: iterate over a copy.
        for pred in list(my_preds):
            pred_block = fn.blocks[pred]
            fn.set_terminator(pred_block,
                              pred_block.terminator.retarget(mapping))
        changed += 1
    return changed


def _merge_straightline(fn: GimpleFunction) -> int:
    """Merge ``a -> b`` when a ends in Jump(b) and b has a single pred.

    A merge changes no other block's terminator or predecessor count, so
    one pass in block order, merging into each block until it no longer
    qualifies, makes every merge there is to make.
    """
    changed = 0
    for label in list(fn.blocks):
        block = fn.blocks.get(label)
        while block is not None:
            term = block.terminator
            if not isinstance(term, Jump):
                break
            succ_label = term.target
            if succ_label == label or succ_label == fn.entry:
                break
            if len(fn.preds(succ_label)) != 1:
                break
            succ = fn.blocks[succ_label]
            if succ.phis():
                # Single-pred phis are degenerate copies; inline them.
                for phi in succ.phis():
                    (value,) = phi.incoming.values()
                    block.instrs.append(Move(phi.dst, value))
                succ.instrs = succ.non_phis()
            block.instrs.extend(succ.instrs)
            fn.set_terminator(block, succ.terminator)
            fn.delete_block(succ_label)
            # Phi inputs downstream referenced succ_label as predecessor.
            for other in fn.blocks.values():
                for phi in other.phis():
                    if succ_label in phi.incoming:
                        phi.incoming[label] = phi.incoming.pop(succ_label)
            changed += 1
    return changed


def _collapse_degenerate_branches(fn: GimpleFunction) -> int:
    changed = 0
    for block in fn.blocks.values():
        term = block.terminator
        if isinstance(term, Branch) and term.if_true == term.if_false:
            fn.set_terminator(block, Jump(term.if_true))
            changed += 1
        elif isinstance(term, SwitchTerm):
            targets = set(term.cases.values()) | {term.default}
            if len(targets) == 1:
                fn.set_terminator(block, Jump(term.default))
                changed += 1
    return changed


def _prune_stale_phi_inputs(fn: GimpleFunction) -> int:
    """Drop phi inputs naming blocks that are no longer predecessors
    (CCP's branch folding removes edges without touching phis)."""
    changed = 0
    for label, block in fn.blocks.items():
        for phi in block.phis():
            stale = [src for src in phi.incoming
                     if src not in fn.preds(label)]
            for src in stale:
                del phi.incoming[src]
                changed += 1
    return changed


def run_simplify_cfg(fn: GimpleFunction) -> int:
    """Iterate the simplifications to a fixpoint; returns total changes."""
    total = 0
    while True:
        changed = remove_unreachable_blocks(fn)
        changed += _prune_stale_phi_inputs(fn)
        changed += _collapse_degenerate_branches(fn)
        changed += _forward_empty_blocks(fn)
        changed += remove_unreachable_blocks(fn)
        changed += _merge_straightline(fn)
        if not changed:
            return total
        total += changed
