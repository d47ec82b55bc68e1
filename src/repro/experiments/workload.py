"""Random state-machine workload generator.

The paper notes that the optimization gain "is proportional to the number
of removed states/transitions" and "depends also on the kind of state
machine" (§III.C).  To chart that beyond the two hand-drawn examples, the
sweep benchmarks need families of machines with controlled amounts of
dead structure.  This generator produces valid, deterministic (seeded)
machines with:

* ``n_live`` reachable simple states in a connected transition graph;
* ``n_dead`` unreachable states (no incoming transitions) — the Fig. 1
  flat pathology, at scale;
* ``n_shadowed_composites`` composite states reachable only through an
  event transition shadowed by an unguarded completion transition — the
  Fig. 1 hierarchical pathology — each carrying ``composite_width``
  substates;
* entry/exit behaviors with a configurable number of opaque calls, and a
  configurable fraction of guarded transitions — applied uniformly to
  every *event* transition (live core, dead states, composites);
  completion transitions stay unguarded because the shadowing pathology
  depends on an unguarded completion winning.

Ring chords never self-loop and prefer targets the source has no edge
to yet; when ``events_per_state`` exceeds the available fanout they
reuse targets on distinct events rather than silently emitting fewer
transitions than the spec asked for.

All machines validate and are executable by the interpreter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..uml import Behavior, StateMachineBuilder, StateMachine, calls

__all__ = ["WorkloadSpec", "mixed_workload", "generate_machine",
           "mutate_one_transition"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one generated machine."""

    n_live: int = 6
    n_dead: int = 0
    n_shadowed_composites: int = 0
    composite_width: int = 3
    entry_calls: int = 2
    exit_calls: int = 1
    events_per_state: int = 2
    guarded_fraction: float = 0.0
    seed: int = 0xBEEF
    name: str = ""

    def machine_name(self) -> str:
        if self.name:
            return self.name
        return (f"W{self.n_live}L{self.n_dead}D"
                f"{self.n_shadowed_composites}C")


def mixed_workload(seed: int, name: str) -> WorkloadSpec:
    """A live ring of 8 with 2 dead states, a shadowed composite of 3
    and a quarter of its event transitions guarded, so a stream
    exercises hierarchy, guards and calls — not just bare jumps.

    The fleet throughput runs and the tuner's ``workload:<seed>``
    machine share this spec; *name* names the machine.
    """
    return WorkloadSpec(n_live=8, n_dead=2, n_shadowed_composites=1,
                        composite_width=3, entry_calls=2, exit_calls=1,
                        events_per_state=2, guarded_fraction=0.25,
                        seed=seed, name=name)


def _behavior(prefix: str, count: int) -> Behavior:
    return calls(*[f"{prefix}_op{i}" for i in range(count)])


def generate_machine(spec: WorkloadSpec) -> StateMachine:
    """Build the machine described by *spec* (deterministic in the seed)."""
    rng = random.Random(spec.seed)
    b = StateMachineBuilder(spec.machine_name())
    b.attribute("guard_var", 1)

    live_names = [f"L{i}" for i in range(spec.n_live)]
    for name in live_names:
        b.state(name,
                entry=_behavior(f"{name.lower()}_entry", spec.entry_calls),
                exit=_behavior(f"{name.lower()}_exit", spec.exit_calls))
    b.initial_to(live_names[0])

    # Connected live core: a ring plus random chords, one event per edge.
    event_counter = 0

    def next_event() -> str:
        nonlocal event_counter
        event_counter += 1
        return f"ev{event_counter}"

    def maybe_guard() -> "str | None":
        # One rng draw per *event* transition, everywhere in the machine,
        # so guarded_fraction is honored uniformly (completion transitions
        # stay unguarded: the shadowing pathology requires it).
        return ("guard_var > 0"
                if rng.random() < spec.guarded_fraction else None)

    for i, name in enumerate(live_names):
        target = live_names[(i + 1) % spec.n_live]
        b.transition(name, target, on=next_event(), guard=maybe_guard(),
                     effect=_behavior(f"t{i}_effect", 1))
        # Chord targets exclude the source (no self-loops) and prefer
        # fresh targets; once the fanout is exhausted they reuse targets
        # (distinct events keep the edges legal) so events_per_state is
        # honored even for tiny live cores.
        used = {target}
        others = [s for s in live_names if s != name]
        for _ in range(max(spec.events_per_state - 1, 0)):
            if not others:
                break  # n_live == 1: no non-self target exists
            candidates = [s for s in others if s not in used] or others
            chord = rng.choice(candidates)
            used.add(chord)
            b.transition(name, chord, on=next_event(), guard=maybe_guard())
    b.transition(live_names[0], "final", on=next_event(),
                 guard=maybe_guard())

    # Dead flat states: transitions out (into the live core), none in.
    for i in range(spec.n_dead):
        name = f"D{i}"
        b.state(name,
                entry=_behavior(f"{name.lower()}_entry", spec.entry_calls),
                exit=_behavior(f"{name.lower()}_exit", spec.exit_calls))
        b.transition(name, rng.choice(live_names), on=next_event(),
                     guard=maybe_guard())

    # Shadowed composites: host state with an unguarded completion
    # transition + an event transition into the composite (dead by UML
    # completion priority).
    for i in range(spec.n_shadowed_composites):
        host = f"H{i}"
        b.state(host, entry=_behavior(f"{host.lower()}_entry",
                                      spec.entry_calls))
        b.transition(live_names[-1], host, on=next_event(),
                     guard=maybe_guard())
        comp = b.composite(f"C{i}",
                           entry=_behavior(f"c{i}_entry", spec.entry_calls),
                           exit=_behavior(f"c{i}_exit", spec.exit_calls))
        inner_names = [f"C{i}S{j}" for j in range(spec.composite_width)]
        for inner in inner_names:
            comp.state(inner,
                       entry=_behavior(f"{inner.lower()}_entry",
                                       spec.entry_calls),
                       exit=_behavior(f"{inner.lower()}_exit",
                                      spec.exit_calls))
        comp.initial_to(inner_names[0])
        for j in range(len(inner_names) - 1):
            comp.transition(inner_names[j], inner_names[j + 1],
                            on=next_event(), guard=maybe_guard())
        comp.transition(inner_names[-1], "final", on=next_event(),
                        guard=maybe_guard())
        b.transition(host, f"C{i}", on=next_event(),
                     guard=maybe_guard())              # shadowed
        b.completion(host, live_names[0])              # always wins:
        # the completion transition is deliberately unguarded — UML
        # completion priority over a guard-free completion is exactly the
        # shadowing pathology this family exists to exhibit.
        b.transition(f"C{i}", live_names[0], on=next_event(),
                     guard=maybe_guard())
    return b.build()


def mutate_one_transition(machine: StateMachine,
                          index: int = 0) -> StateMachine:
    """A copy of *machine* with exactly one event transition retargeted
    into a self-loop — the canonical "edit one transition" step the
    delta-compile gates replay.

    The edit is semantic (the handler of that (state, event) pair
    changes) but minimal: it touches one transition of one region, so a
    structure-sharing recompile should reuse every unit the edit
    doesn't reach.  *index* selects among the eligible transitions
    (external, triggered, not already a self-loop), wrapping around, so
    a corpus sweep can spread edits across a machine.  The copy
    round-trips through the serializer and re-validates — mutants are
    exactly as valid as their parents.
    """
    from ..uml.serialize import machine_from_dict, machine_to_dict
    from ..uml.validate import validate_machine
    data = machine_to_dict(machine)
    eligible = [t for t in data["transitions"]
                if t["triggers"] and t["kind"] == "external"
                and t["source"] != t["target"]]
    if not eligible:
        raise ValueError(f"{machine.name} has no event transition "
                         "to mutate")
    chosen = eligible[index % len(eligible)]
    chosen["target"] = chosen["source"]
    mutant = machine_from_dict(data)
    validate_machine(mutant)
    return mutant
