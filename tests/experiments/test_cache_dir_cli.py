"""`python -m repro.experiments --cache-dir`: the acceptance scenario.

A warm rerun of the full experiment suite against a shared cache
directory must be served (>=90 %) from disk with byte-identical
output.  Run in-process so the engine statistics are inspectable.
"""

import pytest

from repro.engine import ExperimentEngine
from repro.experiments import __main__ as cli


@pytest.fixture()
def capture_engines(monkeypatch):
    engines = []
    original = ExperimentEngine

    def tracking(*args, **kwargs):
        engine = original(*args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(cli, "ExperimentEngine", tracking)
    return engines


def _run(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_warm_rerun_is_disk_served_and_byte_identical(tmp_path, capsys,
                                                      capture_engines):
    cache_dir = str(tmp_path / "cache")
    cold_out = _run(capsys, "--cache-dir", cache_dir)
    warm_out = _run(capsys, "--cache-dir", cache_dir)
    assert warm_out == cold_out, "cold and warm output must be identical"

    cold, warm = capture_engines
    assert cold.stats.misses > 0
    assert warm.stats.misses == 0, "warm run recompiled something"
    # >= 90 % of the warm run's unique work (first-touch lookups) came
    # from disk; the rest of its hits are in-process repeats.
    first_touch = warm.stats.disk_hits + warm.stats.misses
    assert first_touch > 0
    assert warm.stats.disk_hits / first_touch >= 0.9
    assert warm.stats.disk_hits == cold.stats.misses
    assert warm.stats.snapshot()["lookups"] == \
        cold.stats.snapshot()["lookups"]


def test_cache_dir_output_matches_memory_only_run(tmp_path, capsys):
    plain = _run(capsys)
    cached = _run(capsys, "--cache-dir", str(tmp_path / "cache"))
    assert cached == plain
