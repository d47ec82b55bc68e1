"""Dominator tree and dominance frontiers.

Implements Cooper, Harvey & Kennedy's "A Simple, Fast Dominance
Algorithm" — the standard practical choice, also used by GCC — feeding
SSA construction (Cytron et al., the paper's reference [6]).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .cfg import reverse_postorder
from .ir import GimpleFunction

__all__ = ["DomInfo", "compute_dominators", "dominators"]


class DomInfo:
    """Immediate dominators, dominator-tree children and dominance
    frontiers for one function (unreachable blocks excluded)."""

    def __init__(self, idom: Dict[str, Optional[str]],
                 frontier: Dict[str, Set[str]],
                 rpo: List[str]) -> None:
        self.idom = idom
        self.frontier = frontier
        self.rpo = rpo
        self.children: Dict[str, List[str]] = {label: [] for label in idom}
        for label, parent in idom.items():
            if parent is not None and parent != label:
                self.children[parent].append(label)

    def dominates(self, a: str, b: str) -> bool:
        """True when *a* dominates *b* (reflexive)."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            parent = self.idom[node]
            node = parent if parent != node else None
        return False


def compute_dominators(fn: GimpleFunction) -> DomInfo:
    """Compute the dominator tree and dominance frontiers of *fn* from
    scratch.

    Unreachable blocks take no part: only reachable predecessors count.
    """
    rpo = reverse_postorder(fn)
    index = {label: i for i, label in enumerate(rpo)}
    preds = fn.preds

    idom: Dict[str, Optional[str]] = {label: None for label in rpo}
    idom[fn.entry] = fn.entry

    def intersect(a: str, b: str) -> str:
        fa, fb = a, b
        while fa != fb:
            while index[fa] > index[fb]:
                fa = idom[fa]  # type: ignore[assignment]
            while index[fb] > index[fa]:
                fb = idom[fb]  # type: ignore[assignment]
        return fa

    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == fn.entry:
                continue
            candidates = [p for p in preds(label)
                          if p in index and idom[p] is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(other, new_idom)
            if idom[label] != new_idom:
                idom[label] = new_idom
                changed = True

    frontier: Dict[str, Set[str]] = {label: set() for label in rpo}
    for label in rpo:
        ps = [p for p in preds(label) if p in index]
        if len(ps) < 2:
            continue
        for pred in ps:
            runner = pred
            while runner != idom[label]:
                frontier[runner].add(label)
                runner = idom[runner]  # type: ignore[assignment]

    # Root's idom is conventionally None for tree consumers.
    result = dict(idom)
    result[fn.entry] = None
    return DomInfo(result, frontier, rpo)


def dominators(fn: GimpleFunction) -> DomInfo:
    """The dominator info of *fn*, computed at most once per CFG state:
    passes that change no edge leave it valid for the next reader."""
    return fn.cfg_fact(compute_dominators)
