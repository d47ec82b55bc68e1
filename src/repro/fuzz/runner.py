"""The coverage-guided fuzz loop.

:class:`FuzzRunner` drives the whole subsystem: it schedules generation
profiles, generates cases, runs them through the
:class:`~repro.fuzz.oracle.DifferentialOracle`, shrinks whatever
diverges and persists the minimized repros to the
:class:`~repro.fuzz.corpus.Corpus`.

**Coverage guidance** is AFL-style energy scheduling over the profile
fleet: every case yields a set of coverage items (machine-shape
buckets, generator feature tags, trace-record kinds, observable-count
buckets — see the oracle's signature helpers), the runner keeps the
union of everything seen, and a profile earns energy proportional to
the *new* items its cases contribute.  Profiles are drawn by energy, so
strategies that stopped producing new behavior fade and the ones still
finding fresh territory are sampled more — all deterministically from
the run seed.

**Pattern rotation**: the oracle grid is targets × levels × patterns;
running all four codegen patterns on every case would quadruple the
(dominant) compile cost for little marginal coverage, so by default
each case is judged under one pattern, rotated round-robin — the run as
a whole still exercises every pattern.  ``patterns=...`` pins the grid
instead (the rotation is recorded per case, so corpus replays are
exact either way).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..codegen import ALL_PATTERNS
from ..engine import ExperimentEngine
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from .case import FuzzCase
from .corpus import Corpus
from .generate import DEFAULT_PROFILES, FuzzProfile, generate_case
from .oracle import CaseResult, DifferentialOracle, OracleConfig
from .shrink import ShrinkReport, shrink_case

__all__ = ["CoverageMap", "FuzzStats", "FuzzReport", "FuzzRunner"]

_PATTERN_NAMES = tuple(g.name for g in ALL_PATTERNS)


class CoverageMap:
    """The union of coverage items seen so far."""

    def __init__(self) -> None:
        self._items: Set[str] = set()

    def add(self, items: Sequence[str]) -> int:
        """Merge *items*; returns how many were new."""
        new = 0
        for item in items:
            if item not in self._items:
                self._items.add(item)
                new += 1
        return new

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> Tuple[str, ...]:
        return tuple(sorted(self._items))


@dataclass
class FuzzStats:
    """Counters of one fuzz run."""

    cases: int = 0
    executed: int = 0
    rejected: int = 0
    diverged: int = 0
    shrunk: int = 0
    executors_run: int = 0
    cells_skipped: int = 0

    def summary(self) -> str:
        return (f"{self.cases} case(s): {self.executed} executed, "
                f"{self.rejected} rejected, {self.diverged} diverged "
                f"({self.shrunk} shrunk); {self.executors_run} executor "
                f"run(s), {self.cells_skipped} unsupported cell(s) "
                f"skipped")


@dataclass
class FuzzReport:
    """Everything a fuzz run produced."""

    seed: int
    stats: FuzzStats = field(default_factory=FuzzStats)
    coverage: int = 0
    divergent: List[CaseResult] = field(default_factory=list)
    shrink_reports: List[ShrinkReport] = field(default_factory=list)
    corpus_ids: List[str] = field(default_factory=list)
    profile_energy: Dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.divergent

    def summary(self) -> str:
        lines = [f"fuzz(seed={self.seed}): {self.stats.summary()}",
                 f"coverage: {self.coverage} item(s); profile energy: "
                 + ", ".join(f"{name}={energy:.0f}" for name, energy
                             in sorted(self.profile_energy.items()))]
        for result in self.divergent:
            lines.append("  DIVERGENCE " + result.summary())
        for report in self.shrink_reports:
            lines.append("  " + report.summary())
        if self.corpus_ids:
            lines.append("  corpus: " + ", ".join(self.corpus_ids))
        return "\n".join(lines)


class FuzzRunner:
    """Generate → judge → shrink → persist, *cases* times."""

    def __init__(self, engine: Optional[ExperimentEngine] = None,
                 config: OracleConfig = OracleConfig(),
                 profiles: Sequence[FuzzProfile] = DEFAULT_PROFILES,
                 corpus: Optional[Corpus] = None,
                 semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                 shrink_limit: int = 5,
                 on_progress=None) -> None:
        self.engine = engine if engine is not None else ExperimentEngine()
        self.config = config
        self.profiles = tuple(profiles)
        self.corpus = corpus
        self.semantics = semantics
        self.shrink_limit = shrink_limit
        self.coverage = CoverageMap()
        self.energy: Dict[str, float] = {p.name: 1.0
                                         for p in self.profiles}
        self.on_progress = on_progress

    # -- scheduling ---------------------------------------------------------

    def _pick_profile(self, rng: random.Random) -> FuzzProfile:
        weights = [self.energy[p.name] for p in self.profiles]
        return rng.choices(list(self.profiles), weights=weights, k=1)[0]

    def _case_config(self, index: int) -> OracleConfig:
        # Rotate only while the pattern grid is unpinned — an explicit
        # pattern tuple in the config always pins it.
        if self.config.patterns is not None:
            return self.config
        pattern = _PATTERN_NAMES[index % len(_PATTERN_NAMES)]
        return replace(self.config, patterns=(pattern,))

    # -- the loop -----------------------------------------------------------

    def run(self, cases: int, seed: int = 0) -> FuzzReport:
        rng = random.Random(seed)
        report = FuzzReport(seed=seed)
        for index in range(cases):
            case_seed = rng.getrandbits(48)
            profile = self._pick_profile(rng)
            case = generate_case(case_seed, profile)
            config = self._case_config(index)
            oracle = DifferentialOracle(engine=self.engine, config=config,
                                        semantics=self.semantics)
            result = oracle.run_case(case)
            self._account(report, profile, result)
            if result.diverged:
                self._handle_divergence(report, case, result, oracle)
            if self.on_progress is not None:
                self.on_progress(index + 1, cases, report)
        report.coverage = len(self.coverage)
        report.profile_energy = dict(self.energy)
        return report

    def _account(self, report: FuzzReport, profile: FuzzProfile,
                 result: CaseResult) -> None:
        stats = report.stats
        stats.cases += 1
        stats.executors_run += result.executors_run
        stats.cells_skipped += result.cells_skipped
        if result.status == "rejected":
            stats.rejected += 1
        else:
            stats.executed += 1
        if result.diverged:
            stats.diverged += 1
        new = self.coverage.add(result.coverage)
        # Energy decays toward the baseline and spikes on new coverage:
        # a profile that was productive early but dried up stops
        # dominating the draw after a few barren cases.
        self.energy[profile.name] = \
            1.0 + 0.8 * (self.energy[profile.name] - 1.0) + new

    def _handle_divergence(self, report: FuzzReport, case: FuzzCase,
                           result: CaseResult,
                           oracle: DifferentialOracle) -> None:
        report.divergent.append(result)
        if len(report.shrink_reports) >= self.shrink_limit:
            return
        shrink = shrink_case(case, result, oracle)
        report.shrink_reports.append(shrink)
        report.stats.shrunk += 1
        if self.corpus is not None:
            # The shrinker judged candidates under a *narrowed* oracle;
            # the minimized machine may diverge in more cells of the
            # full grid than the one it was minimized against.  The
            # persisted expectation must match what a replay of the
            # stored (full) config will observe.
            final = oracle.run_case(shrink.minimized)
            case_id = self.corpus.add(
                shrink.minimized, oracle.config,
                expect=final.divergent_executors(),
                note=(f"seed={case.seed} profile={case.profile} "
                      f"shrunk from {case.case_id}"),
                semantics=self.semantics)
            report.corpus_ids.append(case_id)
