"""Benchmark: regenerate paper Table 3 (design parameters & weight sizes)."""

from repro.analysis.compare import render_comparisons
from repro.experiments import table3


def test_bench_table3(benchmark, seed):
    result = benchmark(table3.run, seed)
    print()
    print(result.render())
    print()
    print(render_comparisons(result.comparisons, title="Table 3 — paper vs measured"))
    for model in ("alexnet", "vgg16"):
        row = result.rows[model]
        # The index encoding compresses the pruned models 3.5-7x.
        assert 3.5 < row.compression < 7.0
