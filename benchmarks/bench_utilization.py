"""Benchmark: regenerate the CU execution-efficiency study (Sections 6-7)."""

from repro.analysis.compare import render_comparisons
from repro.experiments import utilization


def test_bench_utilization(benchmark, seed):
    result = benchmark(utilization.run, seed)
    print()
    print(result.render())
    print()
    print(
        render_comparisons(result.comparisons, title="CU efficiency — paper vs measured")
    )
    for model, row in result.rows.items():
        # Paper: 87% (VGG16) / 81% (AlexNet), both far above [2]'s 64.5%.
        assert 0.745 < row.execution_efficiency < 0.98, model


def test_bench_scheduling_ablation(benchmark, seed):
    """Design ablation: balanced kernel grouping vs encode-order grouping."""
    ablation = benchmark(utilization.scheduling_ablation, seed)
    print()
    for policy, rows in ablation.items():
        for model, efficiency in rows.items():
            print(f"  {policy:<9} {model:<8} efficiency {efficiency:.1%}")
    for model in ("vgg16", "alexnet"):
        assert ablation["balanced"][model] >= ablation["natural"][model] - 0.01
