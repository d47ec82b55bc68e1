"""The experiment harnesses through the engine: warm-cache reruns,
shared-engine transparency and CLI plumbing."""

import pytest

from repro.engine import ExperimentEngine
from repro.experiments import dynamics, figure1, sweeps, table1, table2
from repro.experiments.__main__ import main as cli_main

HARNESSES = (figure1, table1, table2, sweeps, dynamics)


def _full_suite(engine):
    return "\n".join(module.main(engine=engine)
                     for module in (figure1, table1, table2, sweeps))


class TestEngineReplumb:
    def test_warm_cache_second_run_is_mostly_hits(self):
        """Acceptance: rerunning the full suite on a shared engine is
        >90 % cache hits and byte-identical output."""
        engine = ExperimentEngine()
        first = _full_suite(engine)
        hits_cold, misses_cold = engine.stats.hits, engine.stats.misses
        second = _full_suite(engine)
        assert second == first
        warm_hits = engine.stats.hits - hits_cold
        warm_misses = engine.stats.misses - misses_cold
        warm_rate = warm_hits / (warm_hits + warm_misses)
        assert warm_rate > 0.90, engine.stats.summary()
        assert warm_misses == 0  # the rerun recomputed nothing

    @pytest.mark.parametrize("module", HARNESSES,
                             ids=lambda m: m.__name__.rsplit(".", 1)[-1])
    def test_harness_output_independent_of_shared_engine(self, module):
        """A harness on an engine the other harnesses already filled
        prints what it prints on a fresh engine: what they cached
        serves it only where the work is the same."""
        shared = ExperimentEngine()
        for other in HARNESSES:
            if other is not module:
                other.main(engine=shared)
        hits_before = shared.stats.hits
        assert module.main(engine=shared) == \
            module.main(engine=ExperimentEngine())
        assert shared.stats.hits > hits_before


class TestCli:
    def test_cli_cache_stats_output_identical(self, capsys):
        assert cli_main(["--target", "rt16"]) == 0
        plain_out = capsys.readouterr().out
        assert cli_main(["--target", "rt16", "--cache-stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain_out
        assert "cache:" in captured.err

    def test_cli_has_no_jobs_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
