"""Benchmarks + shape checks for the §III.C scaling claims and ablations.

* gain grows with the number of removed states ("this gain is
  proportional to the number of removed states/transitions");
* gain grows with the shadowed composite's payload ("It depends also on
  the kind of state machine");
* the model-pass ablation shows the structural passes (shadowed
  transitions + unreachable states) carry the hierarchical gain;
* the compiler's own ``-Os`` is its best size level, yet far below what
  the model level adds.
"""

import pytest

from repro.engine import ExperimentEngine
from repro.experiments.sweeps import (composite_sweep, main, opt_level_sweep,
                                      pass_ablation, pattern_scaling_sweep,
                                      unreachable_sweep)


@pytest.fixture(scope="module")
def sweep_report():
    text = main()
    print("\n" + text)
    return text


def test_bench_sweeps_parallel_main(benchmark, sweep_report):
    """Full sweep suite on a fresh engine; output must match the
    module's report."""
    text = benchmark.pedantic(lambda: main(engine=ExperimentEngine()),
                              rounds=5, iterations=1)
    assert text == sweep_report


def test_gain_vs_removed_states(benchmark, sweep_report):
    points = benchmark.pedantic(unreachable_sweep, rounds=5, iterations=1)
    gains = [p.gain_percent for p in points]
    # Monotone non-decreasing gain with more dead states; zero when clean.
    assert gains[0] == 0.0
    assert all(a <= b + 1e-9 for a, b in zip(gains, gains[1:]))
    assert gains[-1] > 20.0
    # Per the paper: the optimized size is independent of the dead count.
    assert len({p.size_after for p in points}) == 1


def test_gain_vs_composite_width(benchmark, sweep_report):
    points = benchmark.pedantic(composite_sweep, rounds=5, iterations=1)
    gains = [p.gain_percent for p in points]
    assert all(a <= b + 1e-9 for a, b in zip(gains, gains[1:]))
    assert gains[-1] > 40.0


def test_pattern_scaling(benchmark, sweep_report):
    curves = benchmark.pedantic(pattern_scaling_sweep, rounds=5,
                                iterations=1, kwargs={"sizes": (4, 12, 20)})
    # Every pattern grows with machine size.
    for name, points in curves.items():
        sizes = [p.size_after for p in points]
        assert sizes == sorted(sizes), name
    # The table pattern's *incremental* cost per state is the lowest of
    # the code-duplicating patterns at scale (data rows vs switch arms).
    def slope(points):
        return (points[-1].size_after - points[0].size_after) / \
            (points[-1].x - points[0].x)
    assert slope(curves["state-table"]) < slope(curves["state-pattern"])


def test_pass_ablation_structural_passes_carry_the_gain(sweep_report):
    points = pass_ablation()
    by_label = {p.label: p for p in points}
    final_gain = points[-1].gain_percent
    after_structural = by_label["+remove-unreachable-states"].gain_percent
    assert after_structural >= 0.95 * final_gain


def test_opt_level_sweep_os_is_best_compiler_only_level(sweep_report):
    points = opt_level_sweep()
    by_label = {p.label: p for p in points}
    sizes = {label: p.size_after for label, p in by_label.items()}
    assert sizes["-Os"] <= min(sizes.values())
    # The compiler alone cannot reach the model-optimized size.
    from repro.experiments.models import \
        hierarchical_machine_with_shadowed_composite
    from repro.pipeline import optimize_and_compare
    cmp = optimize_and_compare(hierarchical_machine_with_shadowed_composite(),
                               "nested-switch", check_behavior=False)
    assert cmp.size_after < sizes["-Os"]
