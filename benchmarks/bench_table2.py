"""Benchmark: regenerate paper Table 2 (state-of-the-art comparison)."""

from repro.analysis.compare import render_comparisons
from repro.baselines.published import get_baseline
from repro.experiments import table2


def test_bench_table2(benchmark, seed):
    result = benchmark(table2.run, seed)
    print()
    print(result.render())
    print()
    print(render_comparisons(result.comparisons, title="Table 2 — paper vs measured"))
    vgg = result.proposed["vgg16"]
    # Headline: clear VGG16 win over the FDConv design [3] on the same FPGA.
    assert vgg.throughput_gops / get_baseline("zeng-vgg16").throughput_gops > 1.25
    # DSPs must stay under the device total — the accumulator-bound claim.
    assert vgg.resources.dsps < 256
