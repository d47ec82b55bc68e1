"""repro.exec — one Executor protocol and one differential runner over
every execution backend.

The repo runs a state machine three ways: the reference interpreter
(:mod:`repro.semantics.runtime`), compiled code on the ISA simulator
(:mod:`repro.vm.harness`), and the vectorized fleet engine
(:mod:`repro.fleet`).  This package puts them behind one protocol and
checks them against each other with one runner:

* :class:`Executor` — ``load(machine) -> Instance`` (compilation or
  other scenario-independent work happens here, memoized per machine);
* :class:`Instance` — ``start()``, ``dispatch(event)``, the ``trace`` /
  ``in_final`` / ``is_terminated`` / ``attributes()`` observers and a
  backend ``extra``;
* :func:`run_scenario` — ``run_scenario(executor, machine, stimuli)``,
  the one entry point every backend shares;
* :func:`observe` / :func:`diff` / :func:`cached_observations` — the
  differential runner (:mod:`~repro.exec.runner`): every
  behaviour-preservation check replays scenarios through it and
  compares :class:`Observation` values by one rule.

Adapters: :class:`InterpreterExecutor`, :class:`VMExecutor`,
:class:`FleetExecutor`.
"""

from .protocol import (Executor, Instance, normalize_stimuli,
                       run_scenario)
from .adapters import FleetExecutor, InterpreterExecutor, VMExecutor
from .runner import (UNSUPPORTED_PREFIX, Observation, cached_observations,
                     diff, observe)

__all__ = ["Executor", "Instance", "run_scenario", "normalize_stimuli",
           "InterpreterExecutor", "VMExecutor", "FleetExecutor",
           "Observation", "UNSUPPORTED_PREFIX", "observe", "diff",
           "cached_observations"]
