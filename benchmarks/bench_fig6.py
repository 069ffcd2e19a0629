"""Benchmark: regenerate paper Figure 6 (optimal N_knl sweep)."""

from repro.analysis.compare import render_comparisons
from repro.experiments import fig6


def test_bench_fig6(benchmark, seed):
    result = benchmark(fig6.run, seed)
    print()
    print(result.render())
    print()
    print(render_comparisons(result.comparisons, title="Figure 6 — paper vs measured"))
    # The optimum sits in the feasibility-bounded plateau around 14.
    assert 11 <= result.chosen_n_knl <= 15
    assert 14 in result.plateau
