"""Benchmark: regenerate paper Figure 1 (roofline design spaces)."""

from repro.analysis.compare import render_comparisons, worst_error
from repro.experiments import fig1


def test_bench_fig1(benchmark, seed):
    result = benchmark(fig1.run, seed)
    print()
    print(result.render())
    print()
    print(render_comparisons(result.comparisons, title="Figure 1 — paper vs measured"))
    # The three roofs are analytic; they must match within 2%.
    assert worst_error(result.comparisons) < 0.02
    # Ordering: SDConv < FDConv < ABM roof, with our point above [3]'s.
    roofs = [roof.gops for roof in result.roofline.roofs()]
    assert roofs == sorted(roofs)
