"""How much work a full ``python -m repro.experiments`` run shares.

The engine's content-addressed cache is the one deduplicator of the
suite: Figure 1, the tables, the sweeps and DYNAMICS call it in plain
loops, and every repeated job is a hit.  The counts below pin that
sharing on both targets; a harness that stops sharing a compile, or a
fingerprint that stops matching a repeat, moves them.
"""

import pytest

from repro.experiments import __main__ as cli

EXPECTED = ("engine(backend=memory): cache: 27 hits (0 disk) / 82 misses "
            "(24.8% hit rate, 109 lookups); units: 68 hits (0 disk) / "
            "654 misses")


@pytest.mark.parametrize("target", ["rt32", "rt16"])
def test_full_run_cache_counts(target, capsys):
    assert cli.main(["--target", target, "--cache-stats"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == EXPECTED
