"""Coverage-guided differential fuzzing of the whole pipeline.

The curated workloads check semantic preservation on a handful of
machines; this package checks it on *generated* ones, Csmith-style, end
to end: a seeded random *machine generator* richer than
:mod:`repro.experiments.workload` (:mod:`.generate`), a random
*stimulus generator* with payloads, an N-way *differential oracle*
(:mod:`.oracle`) comparing the reference interpreter, the model
optimizer's output and every compiled target × level × pattern VM run
through the cached :class:`~repro.engine.ExperimentEngine`, a
delta-debugging *shrinker* (:mod:`.shrink`), and a persistent repro
*corpus* over :class:`~repro.store.ArtifactStore` (:mod:`.corpus`) —
driven by the coverage-guided :class:`~repro.fuzz.runner.FuzzRunner`
and the ``python -m repro.fuzz`` CLI (:mod:`.__main__`).

Main names: :func:`generate_case`, :class:`FuzzCase`,
:class:`OracleConfig`, :class:`DifferentialOracle`, :func:`shrink_case`,
:class:`Corpus`, :class:`FuzzRunner`.
"""

from .case import FuzzCase, Stimulus
from .corpus import Corpus, ReplayOutcome, entry_from_json, entry_to_json
from .generate import (DEFAULT_PROFILES, FuzzProfile, generate_case,
                       random_machine, random_stimulus)
from .oracle import (CaseResult, DifferentialOracle, Divergence,
                     MODEL_OPT_EXECUTOR, OracleConfig)
from .runner import CoverageMap, FuzzReport, FuzzRunner, FuzzStats
from .shrink import ShrinkReport, shrink_case

__all__ = [
    "FuzzCase", "Stimulus",
    "Corpus", "ReplayOutcome", "entry_from_json", "entry_to_json",
    "DEFAULT_PROFILES", "FuzzProfile", "generate_case", "random_machine",
    "random_stimulus",
    "CaseResult", "DifferentialOracle", "Divergence",
    "MODEL_OPT_EXECUTOR", "OracleConfig",
    "CoverageMap", "FuzzReport", "FuzzRunner", "FuzzStats",
    "ShrinkReport", "shrink_case",
]
