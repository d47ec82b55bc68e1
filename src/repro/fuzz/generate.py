"""Seeded random machine generator — the fuzzer's program generator.

This is the Csmith of the pipeline: where
:mod:`repro.experiments.workload` builds *families* of machines with a
controlled amount of dead structure (for sweeps with interpretable
axes), this generator builds *arbitrary* machines with a configurable
feature mix, tuned for bug-finding rather than charting:

* composite states (nested once or twice), with completion flows;
* guards over randomly generated expression trees — attributes,
  literals, comparisons, ``&&``/``||``/``!``, and **external-operation
  calls inside guard and assign expressions**;
* duplicate transitions (same source, same trigger — document order
  decides) and shadowed transitions (an unguarded completion outranks
  the event transition under UML priority);
* unreachable flat states and unreachable composites (whole dead
  regions);
* deep chords (extra random edges, including cross-hierarchy
  transitions into and out of composite sub-regions);
* degenerate shapes: the empty machine (initial straight to final),
  single-state machines whose only behavior is internal/self loops;
* event emission to self, internal transitions, transitions to final.

Every draw comes from the case's :class:`random.Random`, so a case is
reproducible from ``(seed, profile)`` alone.  Generated machines always
validate; expression generation deliberately avoids ``/`` and ``%``
(division-by-zero would make the reference raise, and wrapping
semantics differ per word width) and keeps multiplication operands
small so context attributes stay far inside the simulator's 32-bit
words — the runner additionally screens every reference run and
rejects cases that still misbehave (raise or overflow), Csmith-style.

The profile's booleans/probabilities are *feature weights*, not hard
shapes: the point is for the coverage-guided runner to reweight
profiles as they stop producing new behavior.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..uml import (Assign, Behavior, CallExpr, CallStmt, EmitStmt, Expr,
                   StateMachineBuilder, ValidationError)
from ..uml.actions import BinOp, BoolLit, IntLit, Stmt, UnaryOp, VarRef
from ..uml.builder import RegionBuilder
from ..uml.statemachine import StateMachine
from .case import FuzzCase, Stimulus

__all__ = ["FuzzProfile", "DEFAULT_PROFILES", "random_machine",
           "random_stimulus", "generate_case"]

_ATTRS = ("ax", "bx", "cx")
_OPS = ("probe", "sensor", "motor", "relay")
_CMP = ("<", "<=", ">", ">=", "==", "!=")


@dataclass(frozen=True)
class FuzzProfile:
    """Feature mix of one generation strategy."""

    name: str
    min_states: int = 2
    max_states: int = 6
    p_degenerate: float = 0.0    # empty machine / single-state loop
    p_composite: float = 0.0     # a state becomes composite
    p_nested: float = 0.0        # a composite substate nests again
    composite_width: int = 2
    p_guard: float = 0.3         # a transition gets a guard
    p_guard_call: float = 0.2    # a guard expression embeds a call
    p_effect: float = 0.5        # a transition gets an effect
    p_entry_exit: float = 0.5    # a state gets entry/exit behaviors
    p_assign: float = 0.4        # a behavior statement is an assign
    p_emit: float = 0.0          # a behavior statement emits to self
    p_dup: float = 0.0           # duplicate (source, trigger) transition
    p_shadow: float = 0.0        # unguarded completion shadows an event
    p_dead: float = 0.0          # unreachable state / dead region
    p_chord: float = 0.3         # extra random edge per state
    p_cross: float = 0.0         # a chord crosses region boundaries
    p_internal: float = 0.2      # internal self-transition
    p_final: float = 0.4         # some transition targets final
    p_event_reuse: float = 0.3   # a transition reuses an earlier event
    max_stimuli: int = 3
    max_events: int = 10
    p_unknown_event: float = 0.1  # stimulus event outside the alphabet


#: The fleet of strategies the coverage-guided runner schedules.
DEFAULT_PROFILES: Tuple[FuzzProfile, ...] = (
    FuzzProfile("flat", max_states=6, p_guard=0.35, p_dup=0.2,
                p_chord=0.5, p_final=0.5),
    FuzzProfile("hierarchical", max_states=5, p_composite=0.5,
                p_nested=0.25, composite_width=3, p_shadow=0.3,
                p_cross=0.3, p_guard=0.3),
    FuzzProfile("degenerate", min_states=1, max_states=2,
                p_degenerate=0.7, p_internal=0.5, p_guard=0.2,
                max_stimuli=2, max_events=6),
    FuzzProfile("guard-heavy", max_states=4, p_guard=0.9,
                p_guard_call=0.5, p_dup=0.4, p_effect=0.7,
                p_assign=0.7),
    FuzzProfile("dead-structure", max_states=6, p_dead=0.6,
                p_composite=0.3, p_shadow=0.4, p_guard=0.25),
    FuzzProfile("emitter", max_states=4, p_emit=0.25, p_effect=0.7,
                p_assign=0.5, p_guard=0.3, max_events=8),
)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def _literal(rng: random.Random) -> Expr:
    return IntLit(rng.randint(-4, 7))


def _int_atom(rng: random.Random, attrs: Sequence[str],
              allow_call: bool) -> Expr:
    roll = rng.random()
    if roll < 0.4 and attrs:
        return VarRef(rng.choice(list(attrs)))
    if allow_call and roll < 0.55:
        n_args = rng.randint(0, 2)
        args = tuple(_literal(rng) if rng.random() < 0.6
                     else VarRef(rng.choice(list(attrs)))
                     for _ in range(n_args)) if attrs else \
            tuple(_literal(rng) for _ in range(n_args))
        return CallExpr(rng.choice(_OPS), args)
    return _literal(rng)


def _int_expr(rng: random.Random, attrs: Sequence[str],
              allow_call: bool, depth: int = 2) -> Expr:
    """Bounded integer expression.  ``*`` only pairs an atom with a
    small literal, and ``/``/``%`` never appear, so values stay well
    inside the simulator's 32-bit words for any reachable run."""
    if depth <= 0 or rng.random() < 0.35:
        return _int_atom(rng, attrs, allow_call)
    op = rng.choice(("+", "-", "*"))
    lhs = _int_expr(rng, attrs, allow_call, depth - 1)
    if op == "*":
        return BinOp(op, lhs, IntLit(rng.randint(-3, 3)))
    rhs = _int_expr(rng, attrs, allow_call, depth - 1)
    return BinOp(op, lhs, rhs)


def _bool_expr(rng: random.Random, attrs: Sequence[str],
               allow_call: bool, depth: int = 2) -> Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return BinOp(rng.choice(_CMP),
                     _int_expr(rng, attrs, allow_call, 1),
                     _int_expr(rng, attrs, allow_call, 1))
    if roll < 0.6:
        return UnaryOp("!", _bool_expr(rng, attrs, allow_call, depth - 1))
    if roll < 0.65:
        return BoolLit(rng.random() < 0.5)
    return BinOp(rng.choice(("&&", "||")),
                 _bool_expr(rng, attrs, allow_call, depth - 1),
                 _bool_expr(rng, attrs, allow_call, depth - 1))


def _behavior(rng: random.Random, attrs: Sequence[str],
              profile: FuzzProfile, alphabet: Sequence[str],
              max_stmts: int = 2) -> Optional[Behavior]:
    statements: List[Stmt] = []
    for _ in range(rng.randint(1, max_stmts)):
        roll = rng.random()
        if roll < profile.p_emit and alphabet:
            statements.append(EmitStmt(rng.choice(list(alphabet))))
        elif roll < profile.p_emit + profile.p_assign and attrs:
            statements.append(Assign(
                rng.choice(list(attrs)),
                _int_expr(rng, attrs, allow_call=rng.random() < 0.5)))
        else:
            n_args = rng.randint(0, 2)
            args = tuple(_int_atom(rng, attrs, allow_call=False)
                         for _ in range(n_args))
            statements.append(CallStmt(CallExpr(rng.choice(_OPS), args)))
    return Behavior(statements=tuple(statements))


# ---------------------------------------------------------------------------
# machines
# ---------------------------------------------------------------------------

class _Gen:
    """One generation run (carries the rng, profile, and name pools)."""

    def __init__(self, rng: random.Random, profile: FuzzProfile) -> None:
        self.rng = rng
        self.profile = profile
        self.attrs: Tuple[str, ...] = ()
        self.event_names: List[str] = []
        self.features: Set[str] = set()
        self._event_counter = 0

    def event(self) -> str:
        """A trigger name: fresh, or an earlier one (event reuse means
        one signal drives transitions in several states)."""
        rng, p = self.rng, self.profile
        if (self.event_names and len(self.event_names) >= p.max_events) or \
                (self.event_names and rng.random() < p.p_event_reuse):
            self.features.add("event-reuse")
            return rng.choice(self.event_names)
        self._event_counter += 1
        name = f"ev{self._event_counter}"
        self.event_names.append(name)
        return name

    def guard(self) -> Optional[Expr]:
        rng, p = self.rng, self.profile
        if rng.random() >= p.p_guard:
            return None
        allow_call = rng.random() < p.p_guard_call
        if allow_call:
            self.features.add("guard-call")
        self.features.add("guard")
        return _bool_expr(rng, self.attrs, allow_call)

    def effect(self) -> Optional[Behavior]:
        rng, p = self.rng, self.profile
        if rng.random() >= p.p_effect:
            return None
        return _behavior(rng, self.attrs, p, self.event_names)

    def entry_exit(self) -> Tuple[Optional[Behavior], Optional[Behavior]]:
        rng, p = self.rng, self.profile
        entry = _behavior(rng, self.attrs, p, self.event_names) \
            if rng.random() < p.p_entry_exit else None
        exit_ = _behavior(rng, self.attrs, p, self.event_names) \
            if rng.random() < p.p_entry_exit * 0.6 else None
        return entry, exit_


def random_machine(rng: random.Random, profile: FuzzProfile,
                   name: str = "Fuzz") -> Tuple[StateMachine, Tuple[str, ...],
                                                Tuple[str, ...]]:
    """Generate one machine.

    Returns ``(machine, alphabet, features)`` — the alphabet is the
    trigger names in use (stimulus generation draws from it), features
    are the coverage tags the run actually exercised.
    """
    gen = _Gen(rng, profile)
    b = StateMachineBuilder(name)
    n_attrs = rng.randint(1, len(_ATTRS))
    gen.attrs = _ATTRS[:n_attrs]
    for attr in gen.attrs:
        b.attribute(attr, rng.randint(-2, 3))

    if rng.random() < profile.p_degenerate:
        _degenerate(b, gen)
    else:
        _structured(b, gen)

    machine = b.build()
    return machine, tuple(gen.event_names), tuple(sorted(gen.features))


def _degenerate(b: StateMachineBuilder, gen: _Gen) -> None:
    rng = gen.rng
    shape = rng.choice(("empty", "single-loop", "single-final"))
    gen.features.add(f"degenerate:{shape}")
    if shape == "empty":
        b.initial_to("final")
        return
    entry, exit_ = gen.entry_exit()
    b.state("S0", entry=entry, exit=exit_)
    b.initial_to("S0")
    if rng.random() < gen.profile.p_internal:
        b.internal("S0", on=gen.event(), guard=gen.guard(),
                   effect=gen.effect())
        gen.features.add("internal")
    b.transition("S0", "S0", on=gen.event(), guard=gen.guard(),
                 effect=gen.effect())
    gen.features.add("self-loop")
    if shape == "single-final":
        b.transition("S0", "final", on=gen.event(), guard=gen.guard())
        gen.features.add("to-final")


def _structured(b: StateMachineBuilder, gen: _Gen) -> None:
    rng, profile = gen.rng, gen.profile
    n_states = rng.randint(max(2, profile.min_states), profile.max_states)
    names: List[str] = []
    inner_names: List[str] = []     # states nested inside composites
    for i in range(n_states):
        sname = f"S{i}"
        entry, exit_ = gen.entry_exit()
        if rng.random() < profile.p_composite:
            gen.features.add("composite")
            comp = b.composite(sname, entry=entry, exit=exit_)
            inner_names.extend(_fill_composite(comp, gen, sname))
        else:
            b.state(sname, entry=entry, exit=exit_)
        names.append(sname)
    b.initial_to(names[0])

    # Connected core: a ring over the top-level states.
    for i, sname in enumerate(names):
        target = names[(i + 1) % len(names)]
        b.transition(sname, target, on=gen.event(), guard=gen.guard(),
                     effect=gen.effect())

    # Deep chords: extra random edges, optionally cross-hierarchy.
    for sname in names:
        if rng.random() >= profile.p_chord:
            continue
        pool = names
        if inner_names and rng.random() < profile.p_cross:
            pool = inner_names
            gen.features.add("cross-region")
        target = rng.choice([t for t in pool if t != sname] or names)
        b.transition(sname, target, on=gen.event(), guard=gen.guard(),
                     effect=gen.effect())
        gen.features.add("chord")
    if inner_names and rng.random() < profile.p_cross:
        # ... and one climbing out of a composite's sub-region.
        b.transition(rng.choice(inner_names), rng.choice(names),
                     on=gen.event(), guard=gen.guard())
        gen.features.add("cross-region")

    # Duplicate transitions: same source and trigger, document order
    # decides which one a dispatch takes (guards permitting).
    existing = [(t.source.name, trig.name)
                for t in b.machine.all_transitions()
                for trig in t.triggers
                if t.source.name in names]
    for source, trig in existing:
        if rng.random() < profile.p_dup:
            b.transition(source, rng.choice(names), on=trig,
                         guard=gen.guard(), effect=gen.effect())
            gen.features.add("duplicate-transition")

    # Internal transitions.
    for sname in names:
        if rng.random() < profile.p_internal:
            b.internal(sname, on=gen.event(), guard=gen.guard(),
                       effect=gen.effect())
            gen.features.add("internal")

    # Shadowed transition: an unguarded completion out of a state makes
    # its same-source event transitions dead under UML priority.
    if rng.random() < profile.p_shadow and len(names) >= 3:
        host = names[1]
        b.completion(host, names[2])
        gen.features.add("shadow")

    # Unreachable structure: states (and whole composite regions)
    # without incoming transitions.
    for i in range(2):
        if rng.random() >= profile.p_dead:
            continue
        dname = f"D{i}"
        if rng.random() < profile.p_composite:
            comp = b.composite(dname)
            _fill_composite(comp, gen, dname)
            gen.features.add("dead-region")
        else:
            b.state(dname, entry=gen.entry_exit()[0])
            gen.features.add("dead-state")
        b.transition(dname, rng.choice(names), on=gen.event(),
                     guard=gen.guard())

    # A way out.
    if rng.random() < profile.p_final:
        b.transition(rng.choice(names), "final", on=gen.event(),
                     guard=gen.guard(), effect=gen.effect())
        gen.features.add("to-final")


def _fill_composite(comp: RegionBuilder, gen: _Gen,
                    prefix: str) -> List[str]:
    """Populate a composite's sub-region: a short chain, a completion
    path, and possibly one more nesting level."""
    rng, profile = gen.rng, gen.profile
    width = rng.randint(1, max(1, profile.composite_width))
    inner = [f"{prefix}x{j}" for j in range(width)]
    for j, iname in enumerate(inner):
        entry, exit_ = gen.entry_exit()
        if j == width - 1 and rng.random() < profile.p_nested:
            nested = comp.composite(iname, entry=entry, exit=exit_)
            gen.features.add("nested-composite")
            _fill_composite(nested, gen, iname)
        else:
            comp.state(iname, entry=entry, exit=exit_)
    comp.initial_to(inner[0])
    for j in range(width - 1):
        comp.transition(inner[j], inner[j + 1], on=gen.event(),
                        guard=gen.guard(), effect=gen.effect())
    if rng.random() < 0.6:
        comp.transition(inner[-1], "final", on=gen.event(),
                        guard=gen.guard())
        gen.features.add("composite-completes")
    return inner


# ---------------------------------------------------------------------------
# stimuli and cases
# ---------------------------------------------------------------------------

def random_stimulus(rng: random.Random, alphabet: Sequence[str],
                    profile: FuzzProfile,
                    max_length: int = 12) -> Stimulus:
    """One event sequence: alphabet draws, occasional out-of-alphabet
    signals, small integer payloads."""
    length = rng.randint(0, max_length)
    events = []
    for _ in range(length):
        if not alphabet or rng.random() < profile.p_unknown_event:
            name = f"zz{rng.randint(0, 2)}"
        else:
            name = rng.choice(list(alphabet))
        events.append((name, rng.randint(0, 3)))
    return Stimulus(tuple(events))


def generate_case(seed: int, profile: FuzzProfile,
                  name: str = "") -> FuzzCase:
    """Generate one reproducible case from ``(seed, profile)``.

    Generation retries (consuming the same rng stream) in the unlikely
    event a draw violates well-formedness, so every returned case holds
    a validated machine.
    """
    rng = random.Random(seed)
    machine_name = name or f"Fz{seed & 0xFFFFFF:06x}"
    for _ in range(8):
        try:
            machine, alphabet, features = random_machine(
                rng, profile, name=machine_name)
            break
        except ValidationError:     # pragma: no cover - safety net
            continue
    else:                           # pragma: no cover - safety net
        b = StateMachineBuilder(machine_name)
        b.state("S0")
        b.initial_to("S0")
        b.transition("S0", "final", on="ev1")
        machine, alphabet, features = b.build(), ("ev1",), ("fallback",)
    n_stimuli = rng.randint(1, max(1, profile.max_stimuli))
    stimuli = tuple(random_stimulus(rng, alphabet, profile)
                    for _ in range(n_stimuli))
    return FuzzCase(machine=machine, stimuli=stimuli, seed=seed,
                    profile=profile.name, features=features)
