"""Model-level optimization framework (the paper's contribution).

Behaviour-preserving transformations applied *before* code generation.
Main public names: :func:`optimize` / :class:`PassManager` /
:data:`DEFAULT_PIPELINE` (-> :class:`OptimizationReport` with the
optimized clone), the pass classes (:class:`RemoveUnreachableStates`,
:class:`RemoveShadowedTransitions`, :class:`RemoveDeadComposites`, …),
:func:`suggest_optimizations` / :func:`auto_optimize` (the advisor),
and the preservation check :func:`check_equivalence` (model vs. model
on the interpreter, through the :mod:`repro.exec` differential runner).
"""

from .advisor import Suggestion, auto_optimize, suggest_optimizations
from .equivalence import (EquivalenceReport, check_equivalence,
                          make_scenarios)
from .manager import (DEFAULT_PIPELINE, OptimizationReport, PassManager,
                      default_pass_catalog, optimize)
from .pass_base import ModelPass, PassResult
from .passes import (FlattenTrivialComposites, MergeFinalStates,
                     RemoveDeadComposites, RemoveShadowedTransitions,
                     RemoveUnreachableStates, RemoveUnusedEvents,
                     SimplifyGuards)

__all__ = [
    "Suggestion", "auto_optimize", "suggest_optimizations",
    "EquivalenceReport", "check_equivalence",
    "make_scenarios",
    "DEFAULT_PIPELINE", "OptimizationReport", "PassManager",
    "default_pass_catalog", "optimize",
    "ModelPass", "PassResult",
    "FlattenTrivialComposites", "MergeFinalStates", "RemoveDeadComposites",
    "RemoveShadowedTransitions", "RemoveUnreachableStates",
    "RemoveUnusedEvents", "SimplifyGuards",
]
