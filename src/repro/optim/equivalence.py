"""Behaviour-preservation checking for model optimizations.

The paper positions model optimization as *refactoring*: a transformation
"that guarantees the transition from non optimized model to an optimized
one by keeping unchanged its behavior" (§V).  This module checks that
property empirically: it executes the original and the optimized machine
side by side on event scenarios (exhaustive short sequences over the
alphabet plus pseudo-random long ones) and compares them by the one rule
of the :mod:`repro.exec` differential runner: the *observable* traces
(external calls, attribute assignments and emitted events) plus the
final and terminated flags.  State entries/exits are internal and may
legitimately differ (that is the point of removing dead states).

This is a bounded check, not a proof; with exhaustive depth-k scenarios
it is exact for machines whose guards only depend on event history, which
covers every model in the paper and the generated workloads.

The same question one layer down — does the generated code, compiled
and *executed on the ISA simulator*, behave like the model? — is
:func:`repro.vm.check_vm_conformance`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine

__all__ = ["EquivalenceReport", "check_equivalence", "make_scenarios"]


@dataclass
class EquivalenceReport:
    """Result of comparing two machines over a scenario set."""

    scenarios_run: int = 0
    mismatches: List[Tuple[Tuple[str, ...], str]] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.equivalent:
            return (f"observationally equivalent on {self.scenarios_run} "
                    "scenario(s)")
        first = self.mismatches[0]
        return (f"{len(self.mismatches)} mismatching scenario(s) out of "
                f"{self.scenarios_run}; first: events={list(first[0])} "
                f"({first[1]})")


def make_scenarios(machine: StateMachine, exhaustive_depth: int = 3,
                   n_random: int = 25, random_length: int = 12,
                   seed: int = 0xC0DE) -> List[Tuple[str, ...]]:
    """Build the scenario set: all event sequences up to
    ``exhaustive_depth`` plus ``n_random`` longer random sequences."""
    alphabet = sorted({e.name for e in machine.events.values()})
    scenarios: List[Tuple[str, ...]] = [()]
    for depth in range(1, exhaustive_depth + 1):
        # Cap the exhaustive enumeration so huge alphabets stay tractable.
        if alphabet and len(alphabet) ** depth > 4096:
            break
        scenarios.extend(itertools.product(alphabet, repeat=depth))
    rng = random.Random(seed)
    for _ in range(n_random if alphabet else 0):
        scenarios.append(tuple(rng.choice(alphabet)
                               for _ in range(random_length)))
    return scenarios


def check_equivalence(original: StateMachine, optimized: StateMachine,
                      scenarios: Optional[Sequence[Tuple[str, ...]]] = None,
                      semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                      exhaustive_depth: int = 3, n_random: int = 25,
                      random_length: int = 12,
                      seed: int = 0xC0DE) -> EquivalenceReport:
    """Compare the two machines' observable behavior over scenarios built
    from the **original** machine's alphabet (the optimized machine may
    have dropped unused events — it must still *react* identically, i.e.
    ignore them).  The original is the reference side of the diff."""
    if scenarios is None:
        scenarios = make_scenarios(original, exhaustive_depth=exhaustive_depth,
                                   n_random=n_random,
                                   random_length=random_length, seed=seed)
    from ..exec import InterpreterExecutor, diff, observe
    interp = InterpreterExecutor(semantics)
    mismatches = diff(observe(interp, original, scenarios),
                      observe(interp, optimized, scenarios))
    return EquivalenceReport(
        scenarios_run=len(scenarios),
        mismatches=[(tuple(scenarios[index]), reason)
                    for index, reason in mismatches])
