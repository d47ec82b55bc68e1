"""Well-formedness validation for state machines.

Implements the UML constraints the rest of the pipeline relies on.  The
validator reports *all* violations (not just the first) so model authors
can fix a batch at once; :func:`validate_machine` raises on any error.

Checked constraints:

* the machine has at least one region; each region at most one initial
  pseudostate;
* an initial pseudostate has exactly one outgoing transition, with no
  trigger and no guard, and no incoming transitions;
* final states have no outgoing transitions;
* transitions connect vertices of the same machine;
* internal transitions are self-transitions on states;
* choice/junction pseudostates have at least one outgoing transition;
* names of sibling vertices are unique (needed by code generation);
* guard expressions only reference declared context attributes;
* behaviors only reference declared context attributes.

Validation also *normalizes* the context: every external operation
called anywhere — call statements, assign values, guard expressions —
is auto-declared on the context class, so code generation can emit one
``extern`` declaration per call target without a separate collection
pass (an undeclared call would lower with no return slot and compile
to the constant 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from .actions import CallExpr, VarRef, Behavior
from .elements import ModelError
from .statemachine import (FinalState, Pseudostate, PseudostateKind, State,
                           StateMachine)
from .transitions import TransitionKind

__all__ = ["ValidationIssue", "ValidationError", "validate_machine",
           "check_machine"]


@dataclass(frozen=True)
class ValidationIssue:
    """One well-formedness violation."""

    code: str
    message: str
    element: str  # qualified name of the offending element

    def __str__(self) -> str:
        return f"[{self.code}] {self.element}: {self.message}"


class ValidationError(ModelError):
    """Raised when a machine violates well-formedness constraints."""

    def __init__(self, issues: List[ValidationIssue]) -> None:
        self.issues = issues
        lines = "\n".join(str(i) for i in issues)
        super().__init__(f"{len(issues)} validation issue(s):\n{lines}")


def check_machine(machine: StateMachine) -> List[ValidationIssue]:
    """Return the list of well-formedness violations (possibly empty)."""
    issues: List[ValidationIssue] = []
    issues.extend(_check_regions(machine))
    issues.extend(_check_vertices(machine))
    issues.extend(_check_transitions(machine))
    issues.extend(_check_behaviors(machine))
    return issues


def validate_machine(machine: StateMachine) -> StateMachine:
    """Validate *machine*, raising :class:`ValidationError` on violations."""
    issues = check_machine(machine)
    if issues:
        raise ValidationError(issues)
    return machine


# ---------------------------------------------------------------------------
# individual constraint groups
# ---------------------------------------------------------------------------

def _check_regions(machine: StateMachine) -> Iterator[ValidationIssue]:
    if not machine.regions:
        yield ValidationIssue("SM001", "state machine has no region",
                              machine.qualified_name)
        return
    for region in machine.all_regions():
        initials = [v for v in region.vertices
                    if isinstance(v, Pseudostate) and v.is_initial]
        if len(initials) > 1:
            yield ValidationIssue(
                "RG001", f"region has {len(initials)} initial pseudostates "
                "(at most one allowed)", region.qualified_name)
        names: dict = {}
        for vertex in region.vertices:
            if not vertex.name:
                continue
            if vertex.name in names:
                yield ValidationIssue(
                    "RG002", f"duplicate sibling vertex name {vertex.name!r}",
                    region.qualified_name)
            names[vertex.name] = vertex


def _check_vertices(machine: StateMachine) -> Iterator[ValidationIssue]:
    for vertex in machine.all_vertices():
        if isinstance(vertex, Pseudostate) and vertex.is_initial:
            out = vertex.outgoing()
            if len(out) != 1:
                yield ValidationIssue(
                    "PS001", f"initial pseudostate must have exactly one "
                    f"outgoing transition (has {len(out)})",
                    vertex.qualified_name)
            for tr in out:
                if tr.triggers:
                    yield ValidationIssue(
                        "PS002", "initial transition may not have a trigger",
                        vertex.qualified_name)
                if tr.guard is not None:
                    yield ValidationIssue(
                        "PS003", "initial transition may not have a guard",
                        vertex.qualified_name)
            if vertex.incoming():
                yield ValidationIssue(
                    "PS004", "initial pseudostate may not have incoming "
                    "transitions", vertex.qualified_name)
        elif isinstance(vertex, Pseudostate) and vertex.kind in (
                PseudostateKind.CHOICE, PseudostateKind.JUNCTION):
            if not vertex.outgoing():
                yield ValidationIssue(
                    "PS005", f"{vertex.kind.value} pseudostate needs at "
                    "least one outgoing transition", vertex.qualified_name)
        elif isinstance(vertex, FinalState):
            if vertex.outgoing():
                yield ValidationIssue(
                    "FS001", "final state may not have outgoing transitions",
                    vertex.qualified_name)


def _check_transitions(machine: StateMachine) -> Iterator[ValidationIssue]:
    for tr in machine.all_transitions():
        if tr.source.machine is not machine or tr.target.machine is not machine:
            yield ValidationIssue(
                "TR001", f"transition {tr.describe()} connects vertices "
                "outside this machine", machine.qualified_name)
        if tr.kind is TransitionKind.INTERNAL and not isinstance(tr.source, State):
            yield ValidationIssue(
                "TR002", "internal transitions require a State source",
                machine.qualified_name)
        if isinstance(tr.source, Pseudostate) and tr.source.is_initial:
            continue  # constraints covered above
        if isinstance(tr.source, Pseudostate) and tr.triggers:
            yield ValidationIssue(
                "TR003", f"transition from pseudostate {tr.source.label!r} "
                "may not have explicit triggers", machine.qualified_name)


def _iter_behaviors(machine: StateMachine) -> Iterator[Behavior]:
    for state in machine.all_states():
        yield state.entry
        yield state.exit
        yield state.do_activity
    for tr in machine.all_transitions():
        yield tr.effect


def _check_behaviors(machine: StateMachine) -> Iterator[ValidationIssue]:
    attrs = set(machine.context.attributes)

    for tr in machine.all_transitions():
        if tr.guard is None:
            continue
        for node in tr.guard.walk():
            if isinstance(node, CallExpr):
                machine.context.operation(node.func)
            if isinstance(node, VarRef) and node.name not in attrs:
                yield ValidationIssue(
                    "GD001", f"guard references undeclared attribute "
                    f"{node.name!r} (transition {tr.describe()})",
                    machine.qualified_name)

    for behavior in _iter_behaviors(machine):
        for stmt in behavior.statements:
            for expr in stmt.expressions():
                for node in expr.walk():
                    if isinstance(node, CallExpr):
                        # Called operations are auto-declared — from call
                        # statements AND calls nested in assign values or
                        # guards: validation normalizes the context's
                        # operation list so code generation emits one
                        # ``extern`` (int-returning) per call target.  An
                        # undeclared call would otherwise lower with no
                        # return slot and compile to the constant 0 while
                        # the interpreter evaluates it — a model-vs-code
                        # divergence the VM conformance suite catches.
                        machine.context.operation(node.func)
                    if isinstance(node, VarRef) and node.name not in attrs:
                        yield ValidationIssue(
                            "BH001", f"behavior references undeclared "
                            f"attribute {node.name!r}",
                            machine.qualified_name)
