"""Benchmark: regenerate paper Table 1 (#OP by convolution scheme, VGG16)."""

from repro.analysis.compare import render_comparisons, worst_error
from repro.experiments import table1


def test_bench_table1(benchmark, seed):
    result = benchmark(table1.run, seed)
    print()
    print(result.render())
    print()
    print(render_comparisons(result.comparisons, title="Table 1 — paper vs measured"))
    # Headline: 83.6% of ops saved vs dense spatial convolution.
    assert abs(result.counts.saved_vs_sdconv - 0.836) < 0.02
    assert worst_error(result.comparisons) < 0.12
