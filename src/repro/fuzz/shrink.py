"""Case minimization: delta-debugging for diverging fuzz cases.

Given a case the oracle flagged, the shrinker searches for the smallest
case that *still* diverges, by greedy edit-and-recheck to fixpoint:

1. **stimulus reduction** — keep only the first diverging stimulus,
   then drop its events one at a time (back to front, so the failing
   prefix survives);
2. **machine reduction** — try, in order of expected payoff: removing
   whole states (incident transitions included, nested regions taken
   along), removing individual transitions, erasing guards, erasing
   transition effects, erasing entry/exit behaviors, and sweeping
   now-unused events.

Every candidate is a *clone* (cases are immutable), must still
validate, and is re-judged by the oracle **narrowed to the executors
that originally diverged** — the single cell that disagreed, not the
whole grid — which keeps a shrink run to a few dozen cheap checks.  A
candidate whose reference run becomes undefined is simply not taken
(the oracle rejects it, so it no longer counts as diverging).

The result is deterministic: edits are enumerated in model document
order and the first improving candidate is taken, so a given
(case, oracle) pair always shrinks to the same minimized repro — the
property that lets tests replay corpus fixtures byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..optim.pass_base import PassResult, remove_vertex_with_transitions
from ..optim.passes.remove_unused_events import RemoveUnusedEvents
from ..uml import Behavior, ValidationError, clone_machine
from ..uml.elements import ModelError
from ..uml.statemachine import StateMachine
from ..uml.validate import validate_machine
from .case import FuzzCase, Stimulus
from .oracle import CaseResult, DifferentialOracle

__all__ = ["ShrinkReport", "shrink_case"]

#: Oracle runs one shrink may spend.
_MAX_ATTEMPTS = 600


@dataclass
class ShrinkReport:
    """Outcome of one shrink run."""

    original: FuzzCase
    minimized: FuzzCase
    result: CaseResult           # oracle verdict on the minimized case
    attempts: int = 0
    accepted: int = 0

    def summary(self) -> str:
        def cost(case: FuzzCase) -> str:
            states = sum(1 for _ in case.machine.all_states())
            trans = sum(1 for _ in case.machine.all_transitions())
            events = sum(len(s) for s in case.stimuli)
            return f"{states}st/{trans}tr/{events}ev"
        return (f"shrink {self.original.case_id} -> "
                f"{self.minimized.case_id}: {cost(self.original)} -> "
                f"{cost(self.minimized)} in {self.attempts} attempt(s) "
                f"({self.accepted} accepted)")


def _case_cost(case: FuzzCase) -> Tuple[int, int, int, int, int, int]:
    """Lexicographic size of a case.  Every edit kind must decrease a
    component (all else equal) or the greedy loop can never accept it:
    guards and declared events get their own components exactly so
    that erase_guard / sweep_events candidates register as progress."""
    machine = case.machine
    n_states = sum(1 for _ in machine.all_states())
    n_trans = sum(1 for _ in machine.all_transitions())
    n_stmts = sum(len(s.entry.statements) + len(s.exit.statements)
                  for s in machine.all_states())
    n_stmts += sum(len(t.effect.statements)
                   for t in machine.all_transitions())
    n_guards = sum(1 for t in machine.all_transitions()
                   if t.guard is not None)
    n_decl_events = len(machine.events)
    n_events = sum(len(s) for s in case.stimuli)
    return (n_states, n_trans, n_events, n_stmts, n_guards,
            n_decl_events)


def _valid(machine: StateMachine) -> bool:
    try:
        validate_machine(machine)
    except (ValidationError, ModelError):
        return False
    return True


# -- machine edits ----------------------------------------------------------
# Each edit factory yields callables that mutate a *clone* in place and
# return True when they changed something.  Addressing is by document
# order (state names are unique machine-wide by generator construction;
# transitions go by index), which survives cloning.

def _machine_edits(machine: StateMachine) -> List[Callable]:
    edits: List[Callable] = []
    state_names = [s.qualified_name for s in machine.all_states()]
    n_transitions = sum(1 for _ in machine.all_transitions())

    def remove_state(qname: str):
        def apply(clone: StateMachine) -> bool:
            for state in clone.all_states():
                if state.qualified_name == qname:
                    remove_vertex_with_transitions(
                        state, PassResult("shrink"))
                    return True
            return False
        return apply

    def remove_transition(index: int):
        def apply(clone: StateMachine) -> bool:
            for i, tr in enumerate(clone.all_transitions()):
                if i == index:
                    # The transition may live in any region; find it.
                    for region in clone.all_regions():
                        if tr in region.transitions:
                            region.remove_transition(tr)
                            return True
                    return False
            return False
        return apply

    def erase_guard(index: int):
        def apply(clone: StateMachine) -> bool:
            for i, tr in enumerate(clone.all_transitions()):
                if i == index:
                    if tr.guard is None:
                        return False
                    tr.guard = None
                    return True
            return False
        return apply

    def erase_effect(index: int):
        def apply(clone: StateMachine) -> bool:
            for i, tr in enumerate(clone.all_transitions()):
                if i == index:
                    if not tr.effect.statements:
                        return False
                    tr.effect = Behavior()
                    return True
            return False
        return apply

    def erase_behaviors(qname: str):
        def apply(clone: StateMachine) -> bool:
            for state in clone.all_states():
                if state.qualified_name == qname:
                    if not state.entry.statements and \
                            not state.exit.statements:
                        return False
                    state.entry = Behavior()
                    state.exit = Behavior()
                    return True
            return False
        return apply

    def sweep_events():
        def apply(clone: StateMachine) -> bool:
            return RemoveUnusedEvents().run(clone).changed
        return apply

    for qname in state_names:
        edits.append(remove_state(qname))
    for index in range(n_transitions):
        edits.append(remove_transition(index))
    for index in range(n_transitions):
        edits.append(erase_guard(index))
    for index in range(n_transitions):
        edits.append(erase_effect(index))
    for qname in state_names:
        edits.append(erase_behaviors(qname))
    edits.append(sweep_events())
    return edits


# -- stimulus edits ---------------------------------------------------------

def _stimulus_candidates(case: FuzzCase,
                         result: CaseResult) -> List[FuzzCase]:
    candidates: List[FuzzCase] = []
    if len(case.stimuli) > 1 and result.divergences:
        index = min(d.stimulus_index for d in result.divergences)
        candidates.append(case.with_stimuli([case.stimuli[index]]))
    for s_index, stimulus in enumerate(case.stimuli):
        for e_index in reversed(range(len(stimulus))):
            shorter = Stimulus(stimulus.events[:e_index]
                               + stimulus.events[e_index + 1:])
            new = list(case.stimuli)
            new[s_index] = shorter
            candidates.append(case.with_stimuli(new))
    return candidates


def shrink_case(case: FuzzCase, result: CaseResult,
                oracle: DifferentialOracle) -> ShrinkReport:
    """Minimize *case* while the (narrowed) oracle still flags it."""
    narrowed = DifferentialOracle(
        engine=oracle.engine,
        config=oracle.config.narrowed_to(result.divergent_executors()),
        semantics=oracle.semantics)
    report = ShrinkReport(original=case, minimized=case, result=result)

    def still_diverges(candidate: FuzzCase
                       ) -> Optional[CaseResult]:
        report.attempts += 1
        verdict = narrowed.run_case(candidate)
        return verdict if verdict.diverged else None

    best, best_result = case, result
    improved = True
    while improved and report.attempts < _MAX_ATTEMPTS:
        improved = False
        # 1. stimuli first: dropping events is the cheapest win.
        for candidate in _stimulus_candidates(best, best_result):
            if _case_cost(candidate) >= _case_cost(best):
                continue
            verdict = still_diverges(candidate)
            if verdict is not None:
                best, best_result = candidate, verdict
                report.accepted += 1
                improved = True
                break
        if improved:
            continue
        # 2. machine edits in document order, first improvement wins.
        for edit in _machine_edits(best.machine):
            if report.attempts >= _MAX_ATTEMPTS:
                break
            clone = clone_machine(best.machine)
            try:
                if not edit(clone):
                    continue
            except (ValidationError, ModelError, ValueError):
                continue
            if not _valid(clone):
                continue
            candidate = best.with_machine(clone)
            if _case_cost(candidate) >= _case_cost(best):
                continue
            verdict = still_diverges(candidate)
            if verdict is not None:
                best, best_result = candidate, verdict
                report.accepted += 1
                improved = True
                break
    report.minimized = best
    report.result = best_result
    return report
